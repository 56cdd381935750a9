// Package jsvm is a small JavaScript interpreter sufficient to execute the
// scripts the paper observes apps injecting into WebViews: ES5-style
// function expressions and IIFEs, DOM manipulation through host objects,
// string/number arithmetic, control flow, and try/catch. It is the engine
// behind the browser simulation's <script> execution and the WebView
// runtime's evaluateJavascript.
//
// A hand-written recursive-descent parser feeds a compiler that lowers
// each script to bytecode for a stack VM (compile.go, vm.go). Host
// integrations (document, window, console, JS bridges) are provided as
// host objects with Go-function properties; see NewObject, HostFunc and
// VM.Global.
package jsvm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates JavaScript value kinds.
type Kind int

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject // objects, arrays and functions
)

// kindUnset marks a frame slot whose binding has not executed its
// declaration yet. It never escapes the VM: every slot read goes through
// a lookup that skips unset slots.
const kindUnset Kind = -1

// Value is a JavaScript value. The zero Value is undefined.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
	o    *Object
}

// Constructors.

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Bool wraps a Go bool.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number wraps a float64.
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }

// String wraps a Go string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// ObjectValue wraps an object.
func ObjectValue(o *Object) Value { return Value{kind: KindObject, o: o} }

// Accessors.

// Kind reports the value kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether the value is undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNullish reports null or undefined.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// Object returns the underlying object (nil for non-objects).
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return v.o
	}
	return nil
}

// Truthy implements JavaScript boolean coercion.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindNumber:
		return v.n != 0 && !math.IsNaN(v.n)
	case KindString:
		return v.s != ""
	case KindObject:
		return true
	default:
		return false
	}
}

// NumberValue implements ToNumber coercion.
func (v Value) NumberValue() float64 {
	switch v.kind {
	case KindNumber:
		return v.n
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindString:
		s := strings.TrimSpace(v.s)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindNull:
		return 0
	default:
		return math.NaN()
	}
}

// StringValue implements ToString coercion.
func (v Value) StringValue() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNumber:
		return formatNumber(v.n)
	case KindString:
		return v.s
	case KindObject:
		if v.o.IsArray() {
			parts := make([]string, len(v.o.elems))
			for i, e := range v.o.elems {
				if !e.IsNullish() {
					parts[i] = e.StringValue()
				}
			}
			return strings.Join(parts, ",")
		}
		if v.o.call {
			return "function " + v.o.name + "() { [code] }"
		}
		return "[object Object]"
	}
	return ""
}

func formatNumber(n float64) string {
	switch {
	case math.IsNaN(n):
		return "NaN"
	case math.IsInf(n, 1):
		return "Infinity"
	case math.IsInf(n, -1):
		return "-Infinity"
	case n == math.Trunc(n) && math.Abs(n) < 1e15:
		return strconv.FormatInt(int64(n), 10)
	default:
		return strconv.FormatFloat(n, 'g', -1, 64)
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		if v.o.call {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// Call is the invocation context passed to host functions.
type Call struct {
	VM   *VM
	This Value
	Args []Value
}

// Arg returns the i-th argument or undefined.
func (c *Call) Arg(i int) Value {
	if i < len(c.Args) {
		return c.Args[i]
	}
	return Undefined()
}

// HostFunc is a Go function exposed to scripts.
type HostFunc func(Call) (Value, error)

// Object is a JavaScript object: a property map, optionally array
// elements, optionally callable (script function or host function), and
// an opaque Host slot host integrations use to attach Go state (e.g. a
// *dom.Node).
type Object struct {
	props map[string]Value
	elems []Value // non-nil marks an array
	array bool

	// Callable state: proto (script function) or host.
	proto *funcProto
	cells []*cell // captured bindings of a bytecode closure
	host  HostFunc
	call  bool // true when callable
	name  string

	// version counts property-map writes (Set/Delete). Inline caches in the
	// bytecode VM validate against it; wrap-around is harmless (a stale hit
	// needs 2^32 writes between two reads of the same site).
	version uint32

	// Host is arbitrary Go state attached by embedders.
	Host any
}

// NewObject returns an empty plain object.
func NewObject() *Object { return &Object{props: map[string]Value{}} }

// NewArray returns an array object with the given elements.
func NewArray(elems ...Value) *Object {
	return &Object{props: map[string]Value{}, elems: append([]Value{}, elems...), array: true}
}

// NewHostFunc wraps a Go function as a callable object.
func NewHostFunc(name string, f HostFunc) *Object {
	return &Object{props: map[string]Value{}, host: f, call: true, name: name}
}

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.array }

// IsCallable reports whether the object can be invoked.
func (o *Object) IsCallable() bool { return o.call }

// Name returns the function name ("" for plain objects).
func (o *Object) Name() string { return o.name }

// Elems returns the array elements (nil for non-arrays).
func (o *Object) Elems() []Value { return o.elems }

// Append adds elements to an array object.
func (o *Object) Append(vals ...Value) { o.elems = append(o.elems, vals...) }

// Get reads a property (own properties only; prototypes are not modelled).
func (o *Object) Get(name string) Value {
	if o.array && name == "length" {
		return Number(float64(len(o.elems)))
	}
	if v, ok := o.props[name]; ok {
		return v
	}
	return Undefined()
}

// Has reports whether the property exists.
func (o *Object) Has(name string) bool {
	_, ok := o.props[name]
	return ok
}

// Set writes a property.
func (o *Object) Set(name string, v Value) {
	if o.props == nil {
		o.props = map[string]Value{}
	}
	o.props[name] = v
	o.version++
}

// Delete removes a property (the delete operator).
func (o *Object) Delete(name string) {
	if o.props != nil {
		delete(o.props, name)
		o.version++
	}
}

// SetFunc attaches a host function property, a convenience for embedders.
func (o *Object) SetFunc(name string, f HostFunc) {
	o.Set(name, ObjectValue(NewHostFunc(name, f)))
}

// Keys returns the property names, sorted (for deterministic for-in).
func (o *Object) Keys() []string {
	out := make([]string, 0, len(o.props))
	for k := range o.props {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Index reads an array element (undefined when out of range).
func (o *Object) Index(i int) Value {
	if i >= 0 && i < len(o.elems) {
		return o.elems[i]
	}
	return Undefined()
}

// SetIndex writes an array element, growing the array as needed.
func (o *Object) SetIndex(i int, v Value) {
	for len(o.elems) <= i {
		o.elems = append(o.elems, Undefined())
	}
	o.elems[i] = v
}

// Error is a JavaScript runtime error carrying the thrown value.
type Error struct {
	Value Value
	Where string
}

func (e *Error) Error() string {
	msg := e.Value.StringValue()
	if o := e.Value.Object(); o != nil {
		if m := o.Get("message"); !m.IsUndefined() {
			msg = m.StringValue()
		}
	}
	if e.Where != "" {
		return fmt.Sprintf("jsvm: %s at %s", msg, e.Where)
	}
	return "jsvm: " + msg
}

// throwError builds a thrown error value.
func throwError(format string, args ...any) error {
	o := NewObject()
	o.Set("message", String(fmt.Sprintf(format, args...)))
	o.Set("name", String("Error"))
	return &Error{Value: ObjectValue(o)}
}
