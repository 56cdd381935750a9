package jsvm

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the reference implementation the differential tests
// compare the shipped bytecode VM against: a tree-walking interpreter
// over the same AST. It shares the parser, the value model, the built-ins
// and the operator helpers (binaryOp, getProp) with the VM, and it defines
// the semantics compile.go must preserve, quirks included: a variable
// exists once its declaration has executed, and a write through the scope
// chain to a name that lives only on the Global object lands on a copy.

// refVM walks one program on a VM's global object. Its script functions
// are host functions of that VM, which look the same to a script (typeof,
// name, string form) and let built-ins such as Array.prototype.map call
// them like any other function.
type refVM struct {
	vm     *VM
	global *scope
	steps  int
	depth  int // nested script-function activations
}

// runReference executes p with the tree walker, re-parsing its source.
// Like VM.RunProgram it returns the last expression statement's value.
func runReference(vm *VM, p *Program) (Value, error) {
	body, err := parseProgram(p.src)
	if err != nil {
		return Undefined(), err
	}
	r := &refVM{vm: vm}
	r.global = &scope{vars: map[string]*Value{}, vm: vm}
	// Hoisted function declarations first, then the statements in order.
	for _, st := range body {
		if fd, ok := st.(funcDecl); ok {
			r.global.declare(fd.fn.name, r.makeFunction(fd.fn, r.global))
		}
	}
	var last Value
	for _, st := range body {
		if _, ok := st.(funcDecl); ok {
			continue
		}
		comp, v, err := r.execStmt(st, r.global, Undefined())
		if err != nil {
			return Undefined(), err
		}
		if comp.ctrl == ctrlReturn {
			return comp.val, nil
		}
		last = v
	}
	return last, nil
}

// scope is a lexical environment. Names missing from the whole chain
// resolve against the Global object, where hosts pre-seed globals.
type scope struct {
	vars   map[string]*Value
	parent *scope
	vm     *VM
}

func (s *scope) child() *scope {
	return &scope{vars: make(map[string]*Value, 4), parent: s, vm: s.vm}
}

func (s *scope) lookup(name string) (*Value, bool) {
	for e := s; e != nil; e = e.parent {
		if v, ok := e.vars[name]; ok {
			return v, true
		}
	}
	if s.vm.Global.Has(name) {
		v := s.vm.Global.Get(name)
		return &v, true
	}
	return nil, false
}

func (s *scope) declare(name string, v Value) { s.vars[name] = &v }

// control-flow signals.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

type completion struct {
	ctrl ctrl
	val  Value
}

// step charges one evaluated node against the VM's MaxSteps.
func (r *refVM) step(ln int) error {
	r.steps++
	limit := r.vm.MaxSteps
	if limit == 0 {
		limit = defaultMaxSteps
	}
	if r.steps > limit {
		return fmt.Errorf("jsvm: %w (line %d)", ErrStepBudget, ln)
	}
	return nil
}

// makeFunction closes fn over env.
func (r *refVM) makeFunction(fn *funcLit, env *scope) Value {
	return ObjectValue(NewHostFunc(fn.name, func(c Call) (Value, error) {
		return r.call(fn, env, c.This, c.Args)
	}))
}

// call runs a script function's body in a fresh scope under env,
// enforcing the VM's call-depth bound.
func (r *refVM) call(fn *funcLit, env *scope, this Value, args []Value) (Value, error) {
	if r.depth >= maxCallDepth {
		return Undefined(), fmt.Errorf("jsvm: %w", ErrCallDepth)
	}
	r.depth++
	defer func() { r.depth-- }()
	env = env.child()
	for i, p := range fn.params {
		if i < len(args) {
			env.declare(p, args[i])
		} else {
			env.declare(p, Undefined())
		}
	}
	if fn.usesArgs {
		env.declare("arguments", ObjectValue(NewArray(args...)))
	}
	// Hoist inner function declarations.
	for _, st := range fn.body {
		if fd, ok := st.(funcDecl); ok {
			env.declare(fd.fn.name, r.makeFunction(fd.fn, env))
		}
	}
	for _, st := range fn.body {
		if _, ok := st.(funcDecl); ok {
			continue
		}
		comp, _, err := r.execStmt(st, env, this)
		if err != nil {
			return Undefined(), err
		}
		if comp.ctrl == ctrlReturn {
			return comp.val, nil
		}
	}
	return Undefined(), nil
}

// execStmt executes one statement. The second return carries the value of
// expression statements (for REPL-style Run results).
func (r *refVM) execStmt(st node, env *scope, this Value) (completion, Value, error) {
	if err := r.step(st.line()); err != nil {
		return completion{}, Undefined(), err
	}
	switch s := st.(type) {
	case blockStmt:
		inner := env.child()
		for _, sub := range s.body {
			if fd, ok := sub.(funcDecl); ok {
				inner.declare(fd.fn.name, r.makeFunction(fd.fn, inner))
			}
		}
		for _, sub := range s.body {
			if _, ok := sub.(funcDecl); ok {
				continue
			}
			comp, _, err := r.execStmt(sub, inner, this)
			if err != nil || comp.ctrl != ctrlNone {
				return comp, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case varDecl:
		for i, name := range s.names {
			var v Value
			if s.values[i] != nil {
				var err error
				v, err = r.eval(s.values[i], env, this)
				if err != nil {
					return completion{}, Undefined(), err
				}
			}
			env.declare(name, v)
		}
		return completion{}, Undefined(), nil
	case exprStmt:
		v, err := r.eval(s.expr, env, this)
		return completion{}, v, err
	case ifStmt:
		cond, err := r.eval(s.cond, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		if cond.Truthy() {
			comp, _, err := r.execStmt(s.then, env, this)
			return comp, Undefined(), err
		}
		if s.alt != nil {
			comp, _, err := r.execStmt(s.alt, env, this)
			return comp, Undefined(), err
		}
		return completion{}, Undefined(), nil
	case forStmt:
		inner := env.child()
		if s.init != nil {
			if comp, _, err := r.execStmt(s.init, inner, this); err != nil || comp.ctrl != ctrlNone {
				return comp, Undefined(), err
			}
		}
		for {
			if s.cond != nil {
				c, err := r.eval(s.cond, inner, this)
				if err != nil {
					return completion{}, Undefined(), err
				}
				if !c.Truthy() {
					break
				}
			}
			comp, _, err := r.execStmt(s.body, inner, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
			if s.post != nil {
				if _, err := r.eval(s.post, inner, this); err != nil {
					return completion{}, Undefined(), err
				}
			}
			if err := r.step(s.line()); err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case forInStmt:
		obj, err := r.eval(s.obj, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		inner := env.child()
		inner.declare(s.varName, Undefined())
		slot, _ := inner.lookup(s.varName)
		var items []Value
		if o := obj.Object(); o != nil {
			if s.of {
				items = append(items, o.Elems()...)
			} else if o.IsArray() {
				for i := range o.Elems() {
					items = append(items, String(strconv.Itoa(i)))
				}
			} else {
				for _, k := range o.Keys() {
					items = append(items, String(k))
				}
			}
		} else if obj.Kind() == KindString && s.of {
			for _, r := range obj.StringValue() {
				items = append(items, String(string(r)))
			}
		}
		for _, it := range items {
			*slot = it
			comp, _, err := r.execStmt(s.body, inner, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
		}
		return completion{}, Undefined(), nil
	case whileStmt:
		for {
			c, err := r.eval(s.cond, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if !c.Truthy() {
				break
			}
			comp, _, err := r.execStmt(s.body, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
			if comp.ctrl == ctrlBreak {
				break
			}
			if comp.ctrl == ctrlReturn {
				return comp, Undefined(), nil
			}
			if err := r.step(s.line()); err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{}, Undefined(), nil
	case returnStmt:
		var v Value
		if s.value != nil {
			var err error
			v, err = r.eval(s.value, env, this)
			if err != nil {
				return completion{}, Undefined(), err
			}
		}
		return completion{ctrl: ctrlReturn, val: v}, Undefined(), nil
	case breakStmt:
		return completion{ctrl: ctrlBreak}, Undefined(), nil
	case continueStmt:
		return completion{ctrl: ctrlContinue}, Undefined(), nil
	case throwStmt:
		v, err := r.eval(s.value, env, this)
		if err != nil {
			return completion{}, Undefined(), err
		}
		return completion{}, Undefined(), &Error{Value: v, Where: fmt.Sprintf("line %d", s.line())}
	case tryStmt:
		comp, _, err := r.execStmt(s.body, env, this)
		if err != nil {
			if jsErr, ok := err.(*Error); ok && s.catchBody != nil {
				inner := env.child()
				if s.catchVar != "" {
					inner.declare(s.catchVar, jsErr.Value)
				}
				comp, _, err = r.execStmt(s.catchBody, inner, this)
			}
		}
		if s.finally != nil {
			fcomp, _, ferr := r.execStmt(s.finally, env, this)
			if ferr != nil {
				return completion{}, Undefined(), ferr
			}
			if fcomp.ctrl != ctrlNone {
				return fcomp, Undefined(), nil
			}
		}
		return comp, Undefined(), err
	case funcDecl:
		env.declare(s.fn.name, r.makeFunction(s.fn, env))
		return completion{}, Undefined(), nil
	default:
		return completion{}, Undefined(), fmt.Errorf("jsvm: line %d: unknown statement %T", st.line(), st)
	}
}

func (r *refVM) eval(e node, env *scope, this Value) (Value, error) {
	if err := r.step(e.line()); err != nil {
		return Undefined(), err
	}
	switch x := e.(type) {
	case numberLit:
		return Number(x.val), nil
	case stringLit:
		return String(x.val), nil
	case boolLit:
		return Bool(x.val), nil
	case nullLit:
		return Null(), nil
	case undefinedLit:
		return Undefined(), nil
	case thisExpr:
		return this, nil
	case identExpr:
		if v, ok := env.lookup(x.name); ok {
			return *v, nil
		}
		return Undefined(), throwError("%s is not defined", x.name)
	case arrayLit:
		arr := NewArray()
		for _, el := range x.elems {
			v, err := r.eval(el, env, this)
			if err != nil {
				return Undefined(), err
			}
			arr.Append(v)
		}
		return ObjectValue(arr), nil
	case objectLit:
		o := NewObject()
		for _, p := range x.props {
			v, err := r.eval(p.val, env, this)
			if err != nil {
				return Undefined(), err
			}
			o.Set(p.key, v)
		}
		return ObjectValue(o), nil
	case funcLit:
		return r.makeFunction(&x, env), nil
	case memberExpr:
		obj, err := r.eval(x.obj, env, this)
		if err != nil {
			return Undefined(), err
		}
		return r.getMember(obj, x, env, this)
	case callExpr:
		return r.evalCall(x, env, this)
	case newExpr:
		callee, err := r.eval(x.callee, env, this)
		if err != nil {
			return Undefined(), err
		}
		args, err := r.evalArgs(x.args, env, this)
		if err != nil {
			return Undefined(), err
		}
		o := callee.Object()
		if o == nil || !o.IsCallable() {
			return Undefined(), throwError("not a constructor")
		}
		inst := NewObject()
		ret, err := r.vm.invoke(callee, ObjectValue(inst), args, x.line())
		if err != nil {
			return Undefined(), err
		}
		if ret.Object() != nil {
			return ret, nil
		}
		return ObjectValue(inst), nil
	case unaryExpr:
		if x.op == "typeof" {
			// typeof tolerates undefined identifiers.
			if id, ok := x.expr.(identExpr); ok {
				if v, found := env.lookup(id.name); found {
					return String(v.TypeOf()), nil
				}
				return String("undefined"), nil
			}
		}
		v, err := r.eval(x.expr, env, this)
		if err != nil {
			return Undefined(), err
		}
		switch x.op {
		case "!":
			return Bool(!v.Truthy()), nil
		case "-":
			return Number(-v.NumberValue()), nil
		case "+":
			return Number(v.NumberValue()), nil
		case "~":
			return Number(float64(^toInt32(v.NumberValue()))), nil
		case "typeof":
			return String(v.TypeOf()), nil
		case "void":
			return Undefined(), nil
		case "delete":
			if m, ok := x.expr.(memberExpr); ok {
				obj, err := r.eval(m.obj, env, this)
				if err != nil {
					return Undefined(), err
				}
				if o := obj.Object(); o != nil && m.prop != "" {
					o.Delete(m.prop)
				}
			}
			return Bool(true), nil
		}
		return Undefined(), throwError("unknown unary %s", x.op)
	case updateExpr:
		old, err := r.eval(x.target, env, this)
		if err != nil {
			return Undefined(), err
		}
		delta := 1.0
		if x.op == "--" {
			delta = -1
		}
		nv := Number(old.NumberValue() + delta)
		if err := r.assignTo(x.target, nv, env, this); err != nil {
			return Undefined(), err
		}
		if x.prefix {
			return nv, nil
		}
		return Number(old.NumberValue()), nil
	case binaryExpr:
		l, err := r.eval(x.left, env, this)
		if err != nil {
			return Undefined(), err
		}
		r, err := r.eval(x.right, env, this)
		if err != nil {
			return Undefined(), err
		}
		return binaryOp(x.op, l, r)
	case logicalExpr:
		l, err := r.eval(x.left, env, this)
		if err != nil {
			return Undefined(), err
		}
		switch x.op {
		case "&&":
			if !l.Truthy() {
				return l, nil
			}
		case "||":
			if l.Truthy() {
				return l, nil
			}
		case "??":
			if !l.IsNullish() {
				return l, nil
			}
		}
		return r.eval(x.right, env, this)
	case condExpr:
		c, err := r.eval(x.cond, env, this)
		if err != nil {
			return Undefined(), err
		}
		if c.Truthy() {
			return r.eval(x.then, env, this)
		}
		return r.eval(x.alt, env, this)
	case assignExpr:
		var v Value
		var err error
		if x.op == "=" {
			v, err = r.eval(x.value, env, this)
		} else {
			var old, rhs Value
			old, err = r.eval(x.target, env, this)
			if err != nil {
				return Undefined(), err
			}
			rhs, err = r.eval(x.value, env, this)
			if err != nil {
				return Undefined(), err
			}
			v, err = binaryOp(strings.TrimSuffix(x.op, "="), old, rhs)
		}
		if err != nil {
			return Undefined(), err
		}
		if err := r.assignTo(x.target, v, env, this); err != nil {
			return Undefined(), err
		}
		return v, nil
	case seqExpr:
		var last Value
		for _, sub := range x.exprs {
			v, err := r.eval(sub, env, this)
			if err != nil {
				return Undefined(), err
			}
			last = v
		}
		return last, nil
	default:
		return Undefined(), fmt.Errorf("jsvm: line %d: unknown expression %T", e.line(), e)
	}
}

func (r *refVM) assignTo(target node, v Value, env *scope, this Value) error {
	switch t := target.(type) {
	case identExpr:
		if slot, ok := env.lookup(t.name); ok {
			*slot = v
			return nil
		}
		// Implicit global.
		r.vm.Global.Set(t.name, v)
		return nil
	case memberExpr:
		obj, err := r.eval(t.obj, env, this)
		if err != nil {
			return err
		}
		o := obj.Object()
		if o == nil {
			return throwError("cannot set property of %s", obj.TypeOf())
		}
		if t.computed != nil {
			idx, err := r.eval(t.computed, env, this)
			if err != nil {
				return err
			}
			if o.IsArray() && idx.Kind() == KindNumber {
				o.SetIndex(int(idx.NumberValue()), v)
				return nil
			}
			o.Set(idx.StringValue(), v)
			return nil
		}
		o.Set(t.prop, v)
		return nil
	default:
		return throwError("invalid assignment target")
	}
}

func (r *refVM) evalArgs(args []node, env *scope, this Value) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := r.eval(a, env, this)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (r *refVM) evalCall(x callExpr, env *scope, this Value) (Value, error) {
	// Method calls bind `this` to the receiver.
	var fn, recv Value
	var err error
	if m, ok := x.callee.(memberExpr); ok {
		if recv, err = r.eval(m.obj, env, this); err != nil {
			return Undefined(), err
		}
		fn, err = r.getMember(recv, m, env, this)
	} else {
		fn, err = r.eval(x.callee, env, this)
	}
	if err != nil {
		return Undefined(), err
	}
	args, err := r.evalArgs(x.args, env, this)
	if err != nil {
		return Undefined(), err
	}
	return r.vm.invoke(fn, recv, args, x.line())
}

// getMember reads obj.prop or obj[idx], including string/array built-in
// members.
func (r *refVM) getMember(obj Value, m memberExpr, env *scope, this Value) (Value, error) {
	name := m.prop
	if m.computed != nil {
		idx, err := r.eval(m.computed, env, this)
		if err != nil {
			return Undefined(), err
		}
		if o := obj.Object(); o != nil && o.IsArray() && idx.Kind() == KindNumber {
			return o.Index(int(idx.NumberValue())), nil
		}
		name = idx.StringValue()
	}
	return r.vm.getProp(obj, name, m.line())
}
