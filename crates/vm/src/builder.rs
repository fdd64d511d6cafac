//! Fluent construction of [`Program`]s: classes, methods with symbolic
//! labels, statics, and automatic linking.
//!
//! ```
//! use heapdrag_vm::builder::ProgramBuilder;
//! use heapdrag_vm::class::Visibility;
//! use heapdrag_vm::interp::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), heapdrag_vm::error::VmError> {
//! let mut b = ProgramBuilder::new();
//! let point = b
//!     .begin_class("Point")
//!     .field("x", Visibility::Private)
//!     .field("y", Visibility::Private)
//!     .finish();
//! let main = b.declare_method("main", None, true, 1, 2);
//! {
//!     let mut m = b.begin_body(main);
//!     m.new_obj(point).store(1);
//!     m.load(1).push_int(3).putfield(0); // p.x = 3
//!     m.load(1).getfield(0).print();
//!     m.ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let program = b.finish()?;
//! let mut vm = Vm::new(&program, VmConfig::default());
//! let outcome = vm.run(&[])?;
//! assert_eq!(outcome.output, vec![3]);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::class::{ClassDef, FieldDef, Handler, Method, Visibility};
use crate::error::VmError;
use crate::ids::{ClassId, MethodId, StaticId, VSlot};
use crate::insn::Insn;
use crate::program::{Program, StaticDef};
use crate::value::Value;

/// Builder for a whole [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
    entry_set: bool,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder pre-populated with the builtin classes.
    pub fn new() -> Self {
        ProgramBuilder {
            program: Program::empty(),
            entry_set: false,
        }
    }

    /// The builtin class ids (exception classes, `Object`, `Array`).
    pub fn builtins(&self) -> crate::program::Builtins {
        self.program.builtins
    }

    /// Starts a new class extending `Object`.
    pub fn begin_class(&mut self, name: impl Into<String>) -> ClassBuilder<'_> {
        let mut def = ClassDef::new(name);
        def.super_class = Some(self.program.builtins.object);
        ClassBuilder { builder: self, def }
    }

    /// Declares a method so it can be referenced (and called recursively)
    /// before its body is defined.
    ///
    /// `class` is `None` for free functions. For instance methods
    /// (`is_static == false`) parameter 0 is the receiver.
    pub fn declare_method(
        &mut self,
        name: impl Into<String>,
        class: Option<ClassId>,
        is_static: bool,
        num_params: u16,
        num_locals: u16,
    ) -> MethodId {
        let mut m = Method::new(name, num_params, num_locals);
        m.class = class;
        m.is_static = is_static;
        let id = MethodId(self.program.methods.len() as u32);
        self.program.methods.push(m);
        id
    }

    /// Opens a body builder for a previously declared method.
    ///
    /// # Panics
    ///
    /// Panics if the method already has code.
    pub fn begin_body(&mut self, method: MethodId) -> MethodBuilder<'_> {
        assert!(
            self.program.methods[method.index()].code.is_empty(),
            "method {} already has a body",
            self.program.methods[method.index()].name
        );
        MethodBuilder {
            builder: self,
            method,
            labels: HashMap::new(),
            fixups: Vec::new(),
            handler_fixups: Vec::new(),
            pending_label: None,
        }
    }

    /// Adjusts a declared method's local-variable count (never below its
    /// parameter count). Useful for front ends that discover how many
    /// locals a body needs while lowering it.
    pub fn set_method_locals(&mut self, method: MethodId, num_locals: u16) {
        let m = &mut self.program.methods[method.index()];
        m.num_locals = num_locals.max(m.num_params);
    }

    /// Declares a static variable.
    pub fn static_var(
        &mut self,
        name: impl Into<String>,
        visibility: Visibility,
        init: Value,
    ) -> StaticId {
        let id = StaticId(self.program.statics.len() as u32);
        self.program.statics.push(StaticDef {
            name: name.into(),
            visibility,
            init,
        });
        id
    }

    /// Marks a class's instances as pinned (excluded from profiling, rooted
    /// forever) — the stand-in for `Class` objects.
    pub fn pin_class(&mut self, class: ClassId) {
        self.program.classes[class.index()].pinned = true;
    }

    /// Registers `method` as the finalizer of `class`.
    pub fn set_finalizer(&mut self, class: ClassId, method: MethodId) {
        self.program.classes[class.index()].finalizer = Some(method);
    }

    /// Selects the program entry point (must be a static method).
    pub fn set_entry(&mut self, method: MethodId) {
        self.program.entry = method;
        self.entry_set = true;
    }

    /// Resolves (or creates) the selector slot for a virtual-call name.
    pub fn selector(&mut self, name: &str) -> VSlot {
        if let Some(v) = self.program.selector(name) {
            return v;
        }
        let v = VSlot(self.program.selectors.len() as u32);
        self.program.selectors.push(name.to_string());
        v
    }

    /// Computes the layout slot of `name` in `class` from the classes
    /// declared so far (innermost declaration wins).
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist — a builder-usage error.
    pub fn field_slot(&self, class: ClassId, name: &str) -> u16 {
        let mut chain = Vec::new();
        let mut cur = Some(class);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.program.classes[c.index()].super_class;
        }
        // Fields of the root land in the lowest slots.
        let mut slot = 0u16;
        let mut found = None;
        for c in chain.iter().rev() {
            for f in &self.program.classes[c.index()].fields {
                if f.name == name {
                    found = Some(slot); // keep overriding: innermost wins
                }
                slot += 1;
            }
        }
        found.unwrap_or_else(|| {
            panic!(
                "class {} has no field `{name}`",
                self.program.classes[class.index()].name
            )
        })
    }

    /// Total number of layout slots `class` will have after linking.
    pub fn num_slots(&self, class: ClassId) -> u16 {
        let mut n = 0u16;
        let mut cur = Some(class);
        while let Some(c) = cur {
            n += self.program.classes[c.index()].fields.len() as u16;
            cur = self.program.classes[c.index()].super_class;
        }
        n
    }

    /// Links and returns the finished program.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError::LinkError`] or [`VmError::InvalidBytecode`] if
    /// the program is malformed; see [`Program::link`].
    pub fn finish(mut self) -> Result<Program, VmError> {
        if !self.entry_set {
            return Err(VmError::LinkError("no entry method set".into()));
        }
        self.program.link()?;
        Ok(self.program)
    }

    /// Access to the program under construction (read-only).
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// Builder for one class; created by [`ProgramBuilder::begin_class`].
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    def: ClassDef,
}

impl ClassBuilder<'_> {
    /// Sets the superclass (default: `Object`).
    pub fn extends(mut self, super_class: ClassId) -> Self {
        self.def.super_class = Some(super_class);
        self
    }

    /// Declares a field.
    pub fn field(mut self, name: impl Into<String>, visibility: Visibility) -> Self {
        self.def.fields.push(FieldDef::new(name, visibility));
        self
    }

    /// Marks instances pinned (see [`ProgramBuilder::pin_class`]).
    pub fn pinned(mut self) -> Self {
        self.def.pinned = true;
        self
    }

    /// Read access to the program under construction (for name resolution
    /// while the builder is borrowed).
    pub fn builder_program(&self) -> &Program {
        self.builder.program()
    }

    /// Registers the class and returns its id.
    pub fn finish(self) -> ClassId {
        let id = ClassId(self.builder.program.classes.len() as u32);
        self.builder.program.classes.push(self.def);
        id
    }
}

/// A jump-label fault in one method body, reported by
/// [`MethodBuilder::try_label`] and [`MethodBuilder::try_finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// The label was placed a second time.
    PlacedTwice(String),
    /// A jump, branch or handler referenced a label that was never placed.
    NeverPlaced(String),
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::PlacedTwice(name) => write!(f, "label `{name}` placed twice"),
            LabelError::NeverPlaced(name) => {
                write!(f, "label `{name}` referenced but never placed")
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// Builder for one method body; created by [`ProgramBuilder::begin_body`].
///
/// Emission methods return `&mut Self` for chaining. Control flow uses
/// string labels: place one with [`MethodBuilder::label`], target it with
/// [`MethodBuilder::jump`] and friends; targets may be forward references.
#[derive(Debug)]
pub struct MethodBuilder<'a> {
    builder: &'a mut ProgramBuilder,
    method: MethodId,
    labels: HashMap<String, u32>,
    fixups: Vec<(u32, String)>,
    handler_fixups: Vec<(String, String, String, Option<ClassId>)>,
    pending_label: Option<String>,
}

impl MethodBuilder<'_> {
    fn code(&mut self) -> &mut Vec<Insn> {
        &mut self.builder.program.methods[self.method.index()].code
    }

    /// Read access to the enclosing [`ProgramBuilder`].
    pub fn builder(&self) -> &ProgramBuilder {
        self.builder
    }

    /// Read access to the program under construction.
    pub fn builder_program(&self) -> &Program {
        self.builder.program()
    }

    /// Current pc (where the next instruction will land).
    pub fn pc(&mut self) -> u32 {
        self.code().len() as u32
    }

    /// Emits a raw instruction.
    pub fn op(&mut self, insn: Insn) -> &mut Self {
        if let Some(label) = self.pending_label.take() {
            let pc = self.pc();
            self.builder.program.methods[self.method.index()]
                .site_labels
                .insert(pc, label);
        }
        self.code().push(insn);
        self
    }

    /// Attaches a human-readable site label to the *next* instruction; it
    /// shows up in profiler reports for that site.
    pub fn mark(&mut self, label: impl Into<String>) -> &mut Self {
        self.pending_label = Some(label.into());
        self
    }

    /// Places a jump label at the current pc.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed; see
    /// [`try_label`](Self::try_label) for the fallible form.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        self.try_label(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Places a jump label at the current pc.
    ///
    /// # Errors
    ///
    /// [`LabelError::PlacedTwice`] if the label was already placed; the
    /// first placement stands.
    pub fn try_label(&mut self, name: impl Into<String>) -> Result<&mut Self, LabelError> {
        let name = name.into();
        if self.labels.contains_key(&name) {
            return Err(LabelError::PlacedTwice(name));
        }
        let pc = self.pc();
        self.labels.insert(name, pc);
        Ok(self)
    }

    fn jump_like(&mut self, make: fn(u32) -> Insn, target: impl Into<String>) -> &mut Self {
        let pc = self.pc();
        self.fixups.push((pc, target.into()));
        self.op(make(u32::MAX))
    }

    // --- instruction shorthands -------------------------------------------

    /// `push <i>`.
    pub fn push_int(&mut self, i: i64) -> &mut Self {
        self.op(Insn::PushInt(i))
    }
    /// `pushnull`.
    pub fn push_null(&mut self) -> &mut Self {
        self.op(Insn::PushNull)
    }
    /// `dup`.
    pub fn dup(&mut self) -> &mut Self {
        self.op(Insn::Dup)
    }
    /// `pop`.
    pub fn pop(&mut self) -> &mut Self {
        self.op(Insn::Pop)
    }
    /// `swap`.
    pub fn swap(&mut self) -> &mut Self {
        self.op(Insn::Swap)
    }
    /// `load <n>`.
    pub fn load(&mut self, n: u16) -> &mut Self {
        self.op(Insn::Load(n))
    }
    /// `store <n>`.
    pub fn store(&mut self, n: u16) -> &mut Self {
        self.op(Insn::Store(n))
    }
    /// `add`.
    pub fn add(&mut self) -> &mut Self {
        self.op(Insn::Add)
    }
    /// `sub`.
    pub fn sub(&mut self) -> &mut Self {
        self.op(Insn::Sub)
    }
    /// `mul`.
    pub fn mul(&mut self) -> &mut Self {
        self.op(Insn::Mul)
    }
    /// `div`.
    pub fn div(&mut self) -> &mut Self {
        self.op(Insn::Div)
    }
    /// `rem`.
    pub fn rem(&mut self) -> &mut Self {
        self.op(Insn::Rem)
    }
    /// `neg`.
    pub fn neg(&mut self) -> &mut Self {
        self.op(Insn::Neg)
    }
    /// `cmpeq`.
    pub fn cmpeq(&mut self) -> &mut Self {
        self.op(Insn::CmpEq)
    }
    /// `cmpne`.
    pub fn cmpne(&mut self) -> &mut Self {
        self.op(Insn::CmpNe)
    }
    /// `cmplt`.
    pub fn cmplt(&mut self) -> &mut Self {
        self.op(Insn::CmpLt)
    }
    /// `cmple`.
    pub fn cmple(&mut self) -> &mut Self {
        self.op(Insn::CmpLe)
    }
    /// `cmpgt`.
    pub fn cmpgt(&mut self) -> &mut Self {
        self.op(Insn::CmpGt)
    }
    /// `cmpge`.
    pub fn cmpge(&mut self) -> &mut Self {
        self.op(Insn::CmpGe)
    }
    /// `jump <label>`.
    pub fn jump(&mut self, target: impl Into<String>) -> &mut Self {
        self.jump_like(Insn::Jump, target)
    }
    /// `branch <label>` (pops an int; jumps when non-zero).
    pub fn branch(&mut self, target: impl Into<String>) -> &mut Self {
        self.jump_like(Insn::Branch, target)
    }
    /// `brnull <label>`.
    pub fn branch_if_null(&mut self, target: impl Into<String>) -> &mut Self {
        self.jump_like(Insn::BranchIfNull, target)
    }
    /// `brnonnull <label>`.
    pub fn branch_if_not_null(&mut self, target: impl Into<String>) -> &mut Self {
        self.jump_like(Insn::BranchIfNotNull, target)
    }
    /// `new <class>`.
    pub fn new_obj(&mut self, class: ClassId) -> &mut Self {
        self.op(Insn::New(class))
    }
    /// `newarray` (length on stack).
    pub fn new_array(&mut self) -> &mut Self {
        self.op(Insn::NewArray)
    }
    /// `getfield <slot>`.
    pub fn getfield(&mut self, slot: u16) -> &mut Self {
        self.op(Insn::GetField(slot))
    }
    /// `putfield <slot>`.
    pub fn putfield(&mut self, slot: u16) -> &mut Self {
        self.op(Insn::PutField(slot))
    }
    /// `getfield` resolving the slot by `(class, field-name)`.
    pub fn getfield_named(&mut self, class: ClassId, name: &str) -> &mut Self {
        let slot = self.builder.field_slot(class, name);
        self.getfield(slot)
    }
    /// `putfield` resolving the slot by `(class, field-name)`.
    pub fn putfield_named(&mut self, class: ClassId, name: &str) -> &mut Self {
        let slot = self.builder.field_slot(class, name);
        self.putfield(slot)
    }
    /// `aload`.
    pub fn aload(&mut self) -> &mut Self {
        self.op(Insn::ALoad)
    }
    /// `astore`.
    pub fn astore(&mut self) -> &mut Self {
        self.op(Insn::AStore)
    }
    /// `arraylen`.
    pub fn array_len(&mut self) -> &mut Self {
        self.op(Insn::ArrayLen)
    }
    /// `instanceof <class>`.
    pub fn instance_of(&mut self, class: ClassId) -> &mut Self {
        self.op(Insn::InstanceOf(class))
    }
    /// `getstatic <id>`.
    pub fn getstatic(&mut self, s: StaticId) -> &mut Self {
        self.op(Insn::GetStatic(s))
    }
    /// `putstatic <id>`.
    pub fn putstatic(&mut self, s: StaticId) -> &mut Self {
        self.op(Insn::PutStatic(s))
    }
    /// `call <method>` (direct, static binding).
    pub fn call(&mut self, m: MethodId) -> &mut Self {
        self.op(Insn::Call(m))
    }
    /// `callvirtual` through the named selector.
    pub fn call_virtual(&mut self, selector: &str, argc: u8) -> &mut Self {
        let vslot = self.builder.selector(selector);
        self.op(Insn::CallVirtual { vslot, argc })
    }
    /// `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.op(Insn::Ret)
    }
    /// `retval`.
    pub fn ret_val(&mut self) -> &mut Self {
        self.op(Insn::RetVal)
    }
    /// `monitorenter`.
    pub fn monitor_enter(&mut self) -> &mut Self {
        self.op(Insn::MonitorEnter)
    }
    /// `monitorexit`.
    pub fn monitor_exit(&mut self) -> &mut Self {
        self.op(Insn::MonitorExit)
    }
    /// `throw`.
    pub fn throw(&mut self) -> &mut Self {
        self.op(Insn::Throw)
    }
    /// `print`.
    pub fn print(&mut self) -> &mut Self {
        self.op(Insn::Print)
    }
    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.op(Insn::Nop)
    }

    /// Registers an exception handler: instructions between labels `start`
    /// (inclusive) and `end` (exclusive) are covered; control transfers to
    /// `handler` when an exception of class `catch` (or any, for `None`) is
    /// thrown.
    pub fn handler(
        &mut self,
        start: impl Into<String>,
        end: impl Into<String>,
        handler: impl Into<String>,
        catch: Option<ClassId>,
    ) -> &mut Self {
        self.handler_fixups
            .push((start.into(), end.into(), handler.into(), catch));
        self
    }

    /// Resolves labels and completes the body.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never placed; see
    /// [`try_finish`](Self::try_finish) for the fallible form.
    pub fn finish(&mut self) -> MethodId {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolves labels and completes the body.
    ///
    /// # Errors
    ///
    /// [`LabelError::NeverPlaced`] for the first referenced label (jumps
    /// in emission order, then handlers) that was never placed; the body
    /// is then incomplete and must be discarded.
    pub fn try_finish(&mut self) -> Result<MethodId, LabelError> {
        let labels = std::mem::take(&mut self.labels);
        let resolve = |name: &str| -> Result<u32, LabelError> {
            labels
                .get(name)
                .copied()
                .ok_or_else(|| LabelError::NeverPlaced(name.to_string()))
        };
        for (pc, name) in std::mem::take(&mut self.fixups) {
            let target = resolve(&name)?;
            let code = &mut self.builder.program.methods[self.method.index()].code;
            code[pc as usize] = code[pc as usize].with_jump_target(target);
        }
        for (start, end, handler, catch) in std::mem::take(&mut self.handler_fixups) {
            let h = Handler {
                start_pc: resolve(&start)?,
                end_pc: resolve(&end)?,
                handler_pc: resolve(&handler)?,
                catch,
            };
            self.builder.program.methods[self.method.index()]
                .handlers
                .push(h);
        }
        Ok(self.method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Vm, VmConfig};

    #[test]
    fn build_and_run_arithmetic() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.push_int(6).push_int(7).mul().print().ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![42]);
    }

    #[test]
    fn labels_support_loops() {
        // sum 1..=5 via a backward branch
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 3);
        {
            let mut m = b.begin_body(main);
            m.push_int(0).store(1); // acc
            m.push_int(1).store(2); // i
            m.label("loop");
            m.load(2).push_int(5).cmpgt().branch("done");
            m.load(1).load(2).add().store(1);
            m.load(2).push_int(1).add().store(2);
            m.jump("loop");
            m.label("done");
            m.load(1).print().ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![15]);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn unresolved_label_panics() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        let mut m = b.begin_body(main);
        m.jump("nowhere").ret();
        m.finish();
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        let mut m = b.begin_body(main);
        m.label("l").label("l");
    }

    #[test]
    fn field_slot_resolution_with_inheritance() {
        let mut b = ProgramBuilder::new();
        let base = b
            .begin_class("Base")
            .field("a", Visibility::Private)
            .finish();
        let derived = b
            .begin_class("Derived")
            .extends(base)
            .field("b", Visibility::Private)
            .finish();
        assert_eq!(b.field_slot(derived, "a"), 0);
        assert_eq!(b.field_slot(derived, "b"), 1);
        assert_eq!(b.num_slots(derived), 2);
        assert_eq!(b.num_slots(base), 1);
    }

    #[test]
    fn mark_attaches_site_label() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.push_int(1).mark("the print").print().ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        assert_eq!(p.methods[main.index()].site_label(1), Some("the print"));
        assert_eq!(p.methods[main.index()].site_label(0), None);
    }

    #[test]
    fn virtual_dispatch_end_to_end() {
        let mut b = ProgramBuilder::new();
        let animal = b.begin_class("Animal").finish();
        let dog = b.begin_class("Dog").extends(animal).finish();
        let speak_animal = b.declare_method("speak", Some(animal), false, 1, 1);
        {
            let mut m = b.begin_body(speak_animal);
            m.push_int(1).ret_val();
            m.finish();
        }
        let speak_dog = b.declare_method("speak", Some(dog), false, 1, 1);
        {
            let mut m = b.begin_body(speak_dog);
            m.push_int(2).ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(animal).call_virtual("speak", 0).print();
            m.new_obj(dog).call_virtual("speak", 0).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![1, 2]);
    }

    #[test]
    fn exception_handler_catches_builtin() {
        let mut b = ProgramBuilder::new();
        let arith = b.builtins().arithmetic;
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.label("try");
            m.push_int(1).push_int(0).div().print();
            m.label("end_try");
            m.jump("out");
            m.label("catch");
            m.pop().push_int(-1).print();
            m.label("out");
            m.ret();
            m.handler("try", "end_try", "catch", Some(arith));
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        assert_eq!(vm.run(&[]).unwrap().output, vec![-1]);
    }
}
