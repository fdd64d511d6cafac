//! A textual assembly front-end for VM programs.
//!
//! The format mirrors the builder API one declaration per line:
//!
//! ```text
//! ; a line comment
//! class Point {
//!   field x private
//!   field y private
//! }
//! class Point3 extends Point {
//!   field z public
//! }
//! static Counter.total public = 0
//!
//! method main static params=1 locals=2 {
//!   new Point
//!   store 1
//!   load 1
//!   push 3
//!   putfield Point.x
//!   load 1
//!   getfield Point.x
//!   print
//!   ret
//! }
//! entry main
//! ```
//!
//! Method bodies support labels (`name:`), `.site "text"` to attach a
//! site label to the next instruction, and
//! `.handler start end target ClassName` (or `*` to catch all) for
//! exception handlers. Instance methods are written `method Class.name
//! params=... locals=...` without `static`; parameter 0 is the receiver.

use std::error::Error;
use std::fmt;

use crate::builder::{LabelError, ProgramBuilder};
use crate::class::Visibility;
use crate::error::VmError;
use crate::ids::{ClassId, MethodId};
use crate::program::Program;
use crate::value::Value;

/// An assembly-time error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

impl From<VmError> for AsmError {
    fn from(e: VmError) -> Self {
        AsmError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Assembles `source` into a linked [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] describing the first syntax or link problem.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    Assembler::new(source).assemble()
}

struct Line<'a> {
    number: usize,
    text: &'a str,
}

struct MethodDecl<'a> {
    name: String,
    class: Option<String>,
    is_static: bool,
    params: u16,
    locals: u16,
    body: Vec<Line<'a>>,
    decl_line: usize,
}

struct Assembler<'a> {
    lines: Vec<Line<'a>>,
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn parse_visibility(word: &str, line: usize) -> Result<Visibility, AsmError> {
    match word {
        "private" => Ok(Visibility::Private),
        "package" => Ok(Visibility::Package),
        "protected" => Ok(Visibility::Protected),
        "public" => Ok(Visibility::Public),
        other => Err(err(line, format!("unknown visibility `{other}`"))),
    }
}

fn parse_kv(word: &str, key: &str, line: usize) -> Result<u16, AsmError> {
    let rest = word
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| err(line, format!("expected `{key}=N`, found `{word}`")))?;
    rest.parse()
        .map_err(|_| err(line, format!("bad number in `{word}`")))
}

impl<'a> Assembler<'a> {
    fn new(source: &'a str) -> Self {
        let lines = source
            .lines()
            .enumerate()
            .map(|(i, raw)| {
                let text = match raw.find(';') {
                    // Keep `;` inside quoted site labels.
                    Some(pos) if !raw[..pos].contains('"') => &raw[..pos],
                    _ => raw,
                };
                Line {
                    number: i + 1,
                    text: text.trim(),
                }
            })
            .filter(|l| !l.text.is_empty())
            .collect();
        Assembler { lines }
    }

    fn assemble(self) -> Result<Program, AsmError> {
        let mut b = ProgramBuilder::new();
        let mut methods: Vec<MethodDecl<'a>> = Vec::new();
        let mut entry_name: Option<(String, usize)> = None;
        let mut pending_finalizers: Vec<(ClassId, String, usize)> = Vec::new();

        let mut i = 0;
        while i < self.lines.len() {
            let line = &self.lines[i];
            let mut words = line.text.split_whitespace();
            match words.next() {
                Some("class") => {
                    i = self.parse_class(&mut b, i, &mut pending_finalizers)?;
                }
                Some("static") => {
                    self.parse_static(&mut b, line)?;
                    i += 1;
                }
                Some("method") => {
                    let (decl, next) = self.parse_method(i)?;
                    methods.push(decl);
                    i = next;
                }
                Some("entry") => {
                    let name = words
                        .next()
                        .ok_or_else(|| err(line.number, "entry needs a method name"))?;
                    entry_name = Some((name.to_string(), line.number));
                    i += 1;
                }
                Some(other) => {
                    return Err(err(line.number, format!("unexpected `{other}`")));
                }
                None => i += 1,
            }
        }

        // Declare all methods, then assemble bodies (allows forward calls).
        let mut ids: Vec<MethodId> = Vec::new();
        for decl in &methods {
            let class = match &decl.class {
                Some(name) => Some(self.resolve_class(&b, name, decl.decl_line)?),
                None => None,
            };
            ids.push(b.declare_method(
                decl.name.clone(),
                class,
                decl.is_static,
                decl.params,
                decl.locals,
            ));
        }
        for (decl, id) in methods.iter().zip(&ids) {
            self.assemble_body(&mut b, decl, *id, &methods, &ids)?;
        }
        for (class_id, method_name, fline) in pending_finalizers {
            let class_name = b.program().classes[class_id.index()].name.clone();
            let mid = methods
                .iter()
                .position(|m| m.class.as_deref() == Some(class_name.as_str()) && m.name == method_name)
                .map(|i| ids[i])
                .ok_or_else(|| {
                    err(
                        fline,
                        format!("finalizer `{method_name}` is not a method of `{class_name}`"),
                    )
                })?;
            b.set_finalizer(class_id, mid);
        }

        let (entry, entry_line) =
            entry_name.ok_or_else(|| err(0, "missing `entry` declaration"))?;
        let entry_id = methods
            .iter()
            .position(|m| m.class.is_none() && m.name == entry)
            .map(|i| ids[i])
            .ok_or_else(|| err(entry_line, format!("entry method `{entry}` not found")))?;
        b.set_entry(entry_id);
        b.finish().map_err(AsmError::from)
    }

    fn resolve_class(
        &self,
        b: &ProgramBuilder,
        name: &str,
        line: usize,
    ) -> Result<ClassId, AsmError> {
        b.program()
            .class_by_name(name)
            .ok_or_else(|| err(line, format!("unknown class `{name}`")))
    }

    fn parse_class(
        &self,
        b: &mut ProgramBuilder,
        start: usize,
        pending_finalizers: &mut Vec<(ClassId, String, usize)>,
    ) -> Result<usize, AsmError> {
        let line = &self.lines[start];
        let words: Vec<&str> = line.text.split_whitespace().collect();
        // class NAME [extends SUPER] [pinned] {
        if words.last() != Some(&"{") {
            return Err(err(line.number, "class declaration must end with `{`"));
        }
        let name = *words
            .get(1)
            .ok_or_else(|| err(line.number, "class needs a name"))?;
        let mut cb = b.begin_class(name);
        let mut idx = 2;
        while idx + 1 < words.len() {
            match words[idx] {
                "extends" => {
                    let sup = words
                        .get(idx + 1)
                        .ok_or_else(|| err(line.number, "extends needs a class"))?;
                    // ClassBuilder borrows b; resolve through its program view.
                    let sup_id = {
                        // finish the resolution against the already-registered classes
                        let p = cb.builder_program();
                        p.class_by_name(sup)
                            .ok_or_else(|| err(line.number, format!("unknown class `{sup}`")))?
                    };
                    cb = cb.extends(sup_id);
                    idx += 2;
                }
                "pinned" => {
                    cb = cb.pinned();
                    idx += 1;
                }
                other => return Err(err(line.number, format!("unexpected `{other}`"))),
            }
        }

        let mut finalizer: Option<(String, usize)> = None;
        let mut i = start + 1;
        loop {
            let line = self
                .lines
                .get(i)
                .ok_or_else(|| err(0, "unterminated class block"))?;
            if line.text == "}" {
                let class_id = cb.finish();
                if let Some((method, fline)) = finalizer {
                    pending_finalizers.push((class_id, method, fline));
                }
                return Ok(i + 1);
            }
            let words: Vec<&str> = line.text.split_whitespace().collect();
            match words.as_slice() {
                ["field", name, vis] => {
                    cb = cb.field(*name, parse_visibility(vis, line.number)?);
                }
                ["field", name] => {
                    cb = cb.field(*name, Visibility::Private);
                }
                ["finalizer", method] => {
                    finalizer = Some((method.to_string(), line.number));
                }
                _ => {
                    return Err(err(
                        line.number,
                        "expected `field NAME [visibility]`, `finalizer NAME`, or `}`",
                    ))
                }
            }
            i += 1;
        }
    }

    fn parse_static(&self, b: &mut ProgramBuilder, line: &Line<'_>) -> Result<(), AsmError> {
        // static NAME VIS = INT | static NAME VIS = null
        let words: Vec<&str> = line.text.split_whitespace().collect();
        let (name, vis, init) = match words.as_slice() {
            ["static", name, vis, "=", init] => (name, parse_visibility(vis, line.number)?, init),
            _ => {
                return Err(err(
                    line.number,
                    "expected `static NAME VISIBILITY = INT|null`",
                ))
            }
        };
        let value = if *init == "null" {
            Value::Null
        } else {
            Value::Int(
                init.parse()
                    .map_err(|_| err(line.number, format!("bad initializer `{init}`")))?,
            )
        };
        b.static_var(*name, vis, value);
        Ok(())
    }

    fn parse_method(&self, start: usize) -> Result<(MethodDecl<'a>, usize), AsmError> {
        let line = &self.lines[start];
        let words: Vec<&str> = line.text.split_whitespace().collect();
        if words.last() != Some(&"{") {
            return Err(err(line.number, "method declaration must end with `{`"));
        }
        let full = *words
            .get(1)
            .ok_or_else(|| err(line.number, "method needs a name"))?;
        let (class, name) = match full.rsplit_once('.') {
            Some((c, n)) => (Some(c.to_string()), n.to_string()),
            None => (None, full.to_string()),
        };
        let mut is_static = class.is_none();
        let mut params = None;
        let mut locals = None;
        for w in &words[2..words.len() - 1] {
            if *w == "static" {
                is_static = true;
            } else if w.starts_with("params") {
                params = Some(parse_kv(w, "params", line.number)?);
            } else if w.starts_with("locals") {
                locals = Some(parse_kv(w, "locals", line.number)?);
            } else {
                return Err(err(line.number, format!("unexpected `{w}`")));
            }
        }
        let params = params.ok_or_else(|| err(line.number, "method needs params=N"))?;
        let locals = locals.unwrap_or(params);

        let mut body = Vec::new();
        let mut i = start + 1;
        loop {
            let l = self
                .lines
                .get(i)
                .ok_or_else(|| err(line.number, "unterminated method block"))?;
            if l.text == "}" {
                return Ok((
                    MethodDecl {
                        name,
                        class,
                        is_static,
                        params,
                        locals,
                        body,
                        decl_line: line.number,
                    },
                    i + 1,
                ));
            }
            body.push(Line {
                number: l.number,
                text: l.text,
            });
            i += 1;
        }
    }

    fn assemble_body(
        &self,
        b: &mut ProgramBuilder,
        decl: &MethodDecl<'a>,
        id: MethodId,
        all: &[MethodDecl<'a>],
        ids: &[MethodId],
    ) -> Result<(), AsmError> {
        // Resolve names against the fully-declared program first.
        let find_method = |spec: &str, line: usize| -> Result<MethodId, AsmError> {
            let (class, name) = match spec.rsplit_once('.') {
                Some((c, n)) => (Some(c.to_string()), n.to_string()),
                None => (None, spec.to_string()),
            };
            all.iter()
                .position(|m| m.class == class && m.name == name)
                .map(|i| ids[i])
                .ok_or_else(|| err(line, format!("unknown method `{spec}`")))
        };

        enum FieldRef {
            Slot(u16),
            Named(ClassId, String),
        }
        let parse_field = |b: &ProgramBuilder, spec: &str, line: usize| -> Result<FieldRef, AsmError> {
            if let Ok(n) = spec.parse::<u16>() {
                return Ok(FieldRef::Slot(n));
            }
            let (class, field) = spec
                .rsplit_once('.')
                .ok_or_else(|| err(line, format!("expected `Class.field` or slot, got `{spec}`")))?;
            let cid = b
                .program()
                .class_by_name(class)
                .ok_or_else(|| err(line, format!("unknown class `{class}`")))?;
            Ok(FieldRef::Named(cid, field.to_string()))
        };

        let mut m = b.begin_body(id);
        for line in &decl.body {
            let text = line.text;
            let n = line.number;
            if let Some(label) = text.strip_suffix(':') {
                if label.split_whitespace().count() == 1 {
                    m.try_label(label.trim())
                        .map_err(|e| err(n, e.to_string()))?;
                    continue;
                }
            }
            if let Some(rest) = text.strip_prefix(".site") {
                let label = rest.trim().trim_matches('"');
                m.mark(label);
                continue;
            }
            if let Some(rest) = text.strip_prefix(".handler") {
                let words: Vec<&str> = rest.split_whitespace().collect();
                let [start, end, target, class] = words.as_slice() else {
                    return Err(err(n, ".handler needs `start end target Class|*`"));
                };
                let catch = if *class == "*" {
                    None
                } else {
                    Some(
                        m.builder_program()
                            .class_by_name(class)
                            .ok_or_else(|| err(n, format!("unknown class `{class}`")))?,
                    )
                };
                m.handler(*start, *end, *target, catch);
                continue;
            }
            let mut words = text.split_whitespace();
            let op = words.next().expect("non-empty line");
            let operand = words.next();
            let extra = words.next();
            fn need<'s>(o: Option<&'s str>, op: &str, n: usize) -> Result<&'s str, AsmError> {
                o.ok_or_else(|| err(n, format!("`{op}` needs an operand")))
            }
            match op {
                "push" => {
                    let v: i64 = need(operand, op, n)?
                        .parse()
                        .map_err(|_| err(n, "bad integer"))?;
                    m.push_int(v);
                }
                "pushnull" => {
                    m.push_null();
                }
                "dup" => {
                    m.dup();
                }
                "pop" => {
                    m.pop();
                }
                "swap" => {
                    m.swap();
                }
                "load" => {
                    let v: u16 = need(operand, op, n)?.parse().map_err(|_| err(n, "bad local"))?;
                    m.load(v);
                }
                "store" => {
                    let v: u16 = need(operand, op, n)?.parse().map_err(|_| err(n, "bad local"))?;
                    m.store(v);
                }
                "add" => {
                    m.add();
                }
                "sub" => {
                    m.sub();
                }
                "mul" => {
                    m.mul();
                }
                "div" => {
                    m.div();
                }
                "rem" => {
                    m.rem();
                }
                "neg" => {
                    m.neg();
                }
                "cmpeq" => {
                    m.cmpeq();
                }
                "cmpne" => {
                    m.cmpne();
                }
                "cmplt" => {
                    m.cmplt();
                }
                "cmple" => {
                    m.cmple();
                }
                "cmpgt" => {
                    m.cmpgt();
                }
                "cmpge" => {
                    m.cmpge();
                }
                "jump" => {
                    m.jump(need(operand, op, n)?);
                }
                "branch" => {
                    m.branch(need(operand, op, n)?);
                }
                "brnull" => {
                    m.branch_if_null(need(operand, op, n)?);
                }
                "brnonnull" => {
                    m.branch_if_not_null(need(operand, op, n)?);
                }
                "new" => {
                    let class = need(operand, op, n)?;
                    let cid = m
                        .builder_program()
                        .class_by_name(class)
                        .ok_or_else(|| err(n, format!("unknown class `{class}`")))?;
                    m.new_obj(cid);
                }
                "newarray" => {
                    m.new_array();
                }
                "getfield" | "putfield" => {
                    let fref = parse_field(m.builder(), need(operand, op, n)?, n)?;
                    let slot = match fref {
                        FieldRef::Slot(s) => s,
                        FieldRef::Named(c, f) => m.builder().field_slot(c, &f),
                    };
                    if op == "getfield" {
                        m.getfield(slot);
                    } else {
                        m.putfield(slot);
                    }
                }
                "aload" => {
                    m.aload();
                }
                "astore" => {
                    m.astore();
                }
                "arraylen" => {
                    m.array_len();
                }
                "instanceof" => {
                    let class = need(operand, op, n)?;
                    let cid = m
                        .builder_program()
                        .class_by_name(class)
                        .ok_or_else(|| err(n, format!("unknown class `{class}`")))?;
                    m.instance_of(cid);
                }
                "getstatic" | "putstatic" => {
                    let name = need(operand, op, n)?;
                    let sid = m
                        .builder_program()
                        .static_by_name(name)
                        .ok_or_else(|| err(n, format!("unknown static `{name}`")))?;
                    if op == "getstatic" {
                        m.getstatic(sid);
                    } else {
                        m.putstatic(sid);
                    }
                }
                "call" => {
                    let target = find_method(need(operand, op, n)?, n)?;
                    m.call(target);
                }
                "callvirtual" => {
                    let selector = need(operand, op, n)?;
                    let argc: u8 = need(extra, op, n)?
                        .parse()
                        .map_err(|_| err(n, "bad argc"))?;
                    m.call_virtual(selector, argc);
                }
                "ret" => {
                    m.ret();
                }
                "retval" => {
                    m.ret_val();
                }
                "monitorenter" => {
                    m.monitor_enter();
                }
                "monitorexit" => {
                    m.monitor_exit();
                }
                "throw" => {
                    m.throw();
                }
                "print" => {
                    m.print();
                }
                "nop" => {
                    m.nop();
                }
                other => return Err(err(n, format!("unknown instruction `{other}`"))),
            }
        }
        m.try_finish().map_err(|e| {
            // Blame the first line that references the missing label.
            let (LabelError::NeverPlaced(name) | LabelError::PlacedTwice(name)) = &e;
            let line = decl
                .body
                .iter()
                .find(|l| l.text.split_whitespace().skip(1).any(|w| w == name))
                .map_or(decl.decl_line, |l| l.number);
            err(line, e.to_string())
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Vm, VmConfig};

    #[test]
    fn assemble_hello_arithmetic() {
        let p = assemble(
            "method main static params=1 locals=1 {\n push 40\n push 2\n add\n print\n ret\n}\nentry main\n",
        )
        .unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![42]);
    }

    #[test]
    fn assemble_classes_fields_and_calls() {
        let src = r#"
; a small object program
class Point {
  field x private
  field y private
}
method Point.init params=3 locals=3 {
  load 0
  load 1
  putfield Point.x
  load 0
  load 2
  putfield Point.y
  ret
}
method main static params=1 locals=2 {
  new Point
  store 1
  load 1
  push 3
  push 4
  call Point.init
  load 1
  getfield Point.x
  load 1
  getfield Point.y
  add
  print
  ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![7]);
    }

    #[test]
    fn labels_and_loops() {
        let src = r#"
method main static params=1 locals=2 {
  push 0
  store 1
loop:
  load 1
  push 10
  cmpge
  branch done
  load 1
  push 1
  add
  store 1
  jump loop
done:
  load 1
  print
  ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![10]);
    }

    #[test]
    fn handler_syntax() {
        let src = r#"
method main static params=1 locals=1 {
try:
  push 1
  push 0
  div
  print
end:
  jump out
catch:
  pop
  push 99
  print
out:
  ret
  .handler try end catch ArithmeticException
}
entry main
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![99]);
    }

    #[test]
    fn site_directive_attaches_label() {
        let src = r#"
method main static params=1 locals=1 {
  .site "the answer"
  push 42
  print
  ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        assert_eq!(p.methods[0].site_label(0), Some("the answer"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("method main static params=1 {\n bogus\n ret\n}\nentry main\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = assemble("entry nowhere\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn statics_roundtrip() {
        let src = r#"
static G.counter public = 5
method main static params=1 locals=1 {
  getstatic G.counter
  print
  ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![5]);
    }
}

#[cfg(test)]
mod finalizer_tests {
    use super::*;
    use crate::interp::{Vm, VmConfig};

    #[test]
    fn finalizer_syntax_assembles_and_runs() {
        let src = r#"
static G.count public = 0
class Res {
  field x private
  finalizer finalize
}
method Res.finalize params=1 locals=1 {
  getstatic G.count
  push 1
  add
  putstatic G.count
  ret
}
method churn static params=0 locals=1 {
  push 0
  store 0
loop:
  load 0
  push 600
  cmpge
  branch done
  push 40
  newarray
  pop
  load 0
  push 1
  add
  store 0
  jump loop
done:
  ret
}
method main static params=1 locals=1 {
  new Res
  pop
  new Res
  pop
  call churn
  getstatic G.count
  print
  ret
}
entry main
"#;
        let p = assemble(src).unwrap();
        let out = Vm::new(&p, VmConfig::profiling()).run(&[]).unwrap();
        assert_eq!(out.output, vec![2], "both finalizers ran during deep GC");
        // Round-trips through the disassembler too.
        let p2 = assemble(&crate::disasm::disassemble(&p)).unwrap();
        let out2 = Vm::new(&p2, VmConfig::profiling()).run(&[]).unwrap();
        assert_eq!(out2.output, vec![2]);
    }

    #[test]
    fn unknown_finalizer_method_is_an_error() {
        let src = "class R {\n  finalizer nope\n}\nmethod main static params=1 locals=1 {\n  ret\n}\nentry main\n";
        let e = assemble(src).unwrap_err();
        assert!(e.message.contains("finalizer"), "{e}");
    }
}
