package jsvm

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func run(t *testing.T, src string) Value {
	t.Helper()
	vm := New()
	v, err := vm.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

func TestArithmeticAndPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 % 3", 1},
		{"2 * 3 + 4 * 5", 26},
		{"-3 + 1", -2},
		{"1 < 2 ? 10 : 20", 10},
		{"7 & 3", 3},
		{"1 << 4", 16},
		{"255 >> 4", 15},
		{"5 ^ 1", 4},
	}
	for _, c := range cases {
		if got := run(t, c.src).NumberValue(); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStringOps(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`"a" + "b"`, "ab"},
		{`"n=" + 5`, "n=5"},
		{`"Hello".toLowerCase()`, "hello"},
		{`"a,b,c".split(",").join("-")`, "a-b-c"},
		{`"  x ".trim()`, "x"},
		{`"abcdef".slice(1, 3)`, "bc"},
		{`"abcdef".slice(-2)`, "ef"},
		{`"hello".replace("l", "L")`, "heLlo"},
		{`"hello".replaceAll("l", "L")`, "heLLo"},
		{`"abc".charAt(1)`, "b"},
		{`typeof "x"`, "string"},
	}
	for _, c := range cases {
		if got := run(t, c.src).StringValue(); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
	if got := run(t, `"abc".indexOf("c")`).NumberValue(); got != 2 {
		t.Errorf("indexOf = %v", got)
	}
	if got := run(t, `"hello".length`).NumberValue(); got != 5 {
		t.Errorf("length = %v", got)
	}
}

func TestVariablesAndScope(t *testing.T) {
	src := `
var x = 1;
function outer() {
    var x = 2;
    function inner() { return x + 1; }
    return inner();
}
outer() + x;`
	if got := run(t, src).NumberValue(); got != 4 {
		t.Errorf("closure result = %v, want 4", got)
	}
}

func TestClosuresCaptureByReference(t *testing.T) {
	src := `
function counter() {
    var n = 0;
    return function() { n = n + 1; return n; };
}
var c = counter();
c(); c(); c();`
	if got := run(t, src).NumberValue(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
var sum = 0;
for (var i = 0; i < 10; i++) {
    if (i % 2 === 0) { continue; }
    if (i > 7) { break; }
    sum += i;
}
sum;`
	if got := run(t, src).NumberValue(); got != 1+3+5+7 {
		t.Errorf("loop sum = %v", got)
	}
	if got := run(t, `var n = 0; while (n < 5) { n++; } n;`).NumberValue(); got != 5 {
		t.Errorf("while = %v", got)
	}
}

func TestForInAndForOf(t *testing.T) {
	src := `
var o = {b: 2, a: 1, c: 3};
var keys = [];
for (var k in o) { keys.push(k); }
keys.join(",");`
	if got := run(t, src).StringValue(); got != "a,b,c" {
		t.Errorf("for-in keys = %q", got)
	}
	src2 := `
var total = 0;
for (var v of [1, 2, 3]) { total += v; }
total;`
	if got := run(t, src2).NumberValue(); got != 6 {
		t.Errorf("for-of = %v", got)
	}
}

func TestObjectsAndArrays(t *testing.T) {
	src := `
var o = {name: "x", nested: {deep: [1, 2, 3]}};
o.nested.deep[1] + o.nested.deep.length;`
	if got := run(t, src).NumberValue(); got != 5 {
		t.Errorf("nested access = %v", got)
	}
	if got := run(t, `var a = []; a.push(1); a.push(2, 3); a.length;`).NumberValue(); got != 3 {
		t.Errorf("push = %v", got)
	}
	if got := run(t, `[3, 1, 2].sort().join("")`).StringValue(); got != "123" {
		t.Errorf("sort = %q", got)
	}
	if got := run(t, `[1,2,3,4].filter(function(x){return x % 2 === 0;}).map(function(x){return x * 10;}).join(",")`).StringValue(); got != "20,40" {
		t.Errorf("filter/map = %q", got)
	}
	if got := run(t, `[1,2,3].reduce(function(a,b){return a+b;}, 10)`).NumberValue(); got != 16 {
		t.Errorf("reduce = %v", got)
	}
}

func TestIIFE(t *testing.T) {
	src := `
(function(d, s, id) {
    return d + s + id;
}("a", "b", "c"));`
	if got := run(t, src).StringValue(); got != "abc" {
		t.Errorf("IIFE = %q", got)
	}
}

// The paper's Listing 1: the Facebook/Instagram autofill SDK injector,
// executed against a host document object.
func TestListing1AutofillInjection(t *testing.T) {
	vm := New()
	var inserted []string
	scriptEl := NewObject()
	doc := NewObject()
	doc.SetFunc("getElementsByTagName", func(c Call) (Value, error) {
		el := NewObject()
		parent := NewObject()
		parent.SetFunc("insertBefore", func(cc Call) (Value, error) {
			if o := cc.Arg(0).Object(); o != nil {
				inserted = append(inserted, o.Get("src").StringValue())
			}
			return cc.Arg(0), nil
		})
		el.Set("parentNode", ObjectValue(parent))
		arr := NewArray(ObjectValue(el))
		return ObjectValue(arr), nil
	})
	doc.SetFunc("getElementById", func(c Call) (Value, error) {
		return Null(), nil
	})
	doc.SetFunc("createElement", func(c Call) (Value, error) {
		return ObjectValue(scriptEl), nil
	})
	vm.Global.Set("document", ObjectValue(doc))

	src := `
(function(d, s, id){
    var sdkURL = "//connect.facebook.net/en_US/iab.autofill.enhanced.js";
    var js, fjs = d.getElementsByTagName(s)[0];
    if (d.getElementById(id)) {
        return;
    }
    js = d.createElement(s);
    js.id = id;
    js.src = sdkURL;
    fjs.parentNode.insertBefore(js, fjs);
}(document, 'script', 'instagram-autofill-sdk'));`
	if _, err := vm.Run(src); err != nil {
		t.Fatalf("Listing 1: %v", err)
	}
	if len(inserted) != 1 || !strings.Contains(inserted[0], "iab.autofill.enhanced.js") {
		t.Errorf("inserted = %v", inserted)
	}
	if scriptEl.Get("id").StringValue() != "instagram-autofill-sdk" {
		t.Errorf("script id = %q", scriptEl.Get("id").StringValue())
	}
}

func TestTryCatchThrow(t *testing.T) {
	src := `
var result = "none";
try {
    throw new Error("boom");
} catch (e) {
    result = e.message;
}
result;`
	if got := run(t, src).StringValue(); got != "boom" {
		t.Errorf("catch = %q", got)
	}
	src2 := `
var log = [];
try {
    log.push("t");
    undefinedFunction();
    log.push("unreached");
} catch (e) {
    log.push("c");
} finally {
    log.push("f");
}
log.join("");`
	if got := run(t, src2).StringValue(); got != "tcf" {
		t.Errorf("try/catch/finally = %q", got)
	}
}

func TestUncaughtThrowSurfacesAsError(t *testing.T) {
	vm := New()
	_, err := vm.Run(`throw new Error("fatal");`)
	if err == nil {
		t.Fatal("uncaught throw returned nil error")
	}
	if !strings.Contains(err.Error(), "fatal") {
		t.Errorf("err = %v", err)
	}
}

func TestJSON(t *testing.T) {
	if got := run(t, `JSON.stringify({b: 1, a: [true, null, "x"]})`).StringValue(); got != `{"a":[true,null,"x"],"b":1}` {
		t.Errorf("stringify = %q", got)
	}
	if got := run(t, `JSON.parse('{"k": [1, 2.5], "s": "v"}').k[1]`).NumberValue(); got != 2.5 {
		t.Errorf("parse = %v", got)
	}
	if got := run(t, `JSON.parse('"uniA"')`).StringValue(); got != "uniA" {
		t.Errorf("unicode escape = %q", got)
	}
	vm := New()
	if _, err := vm.Run(`JSON.parse("{bad json")`); err == nil {
		t.Error("bad JSON parse succeeded")
	}
}

func TestMathAndGlobals(t *testing.T) {
	if got := run(t, `Math.floor(3.7) + Math.max(1, 5, 2)`).NumberValue(); got != 8 {
		t.Errorf("math = %v", got)
	}
	if got := run(t, `parseInt("42abc")`).NumberValue(); got != 42 {
		t.Errorf("parseInt = %v", got)
	}
	if got := run(t, `parseInt("ff", 16)`).NumberValue(); got != 255 {
		t.Errorf("parseInt hex = %v", got)
	}
	if !math.IsNaN(run(t, `parseInt("zz")`).NumberValue()) {
		t.Error("parseInt(zz) not NaN")
	}
	if got := run(t, `encodeURIComponent("a b&c")`).StringValue(); got != "a%20b%26c" {
		t.Errorf("encodeURIComponent = %q", got)
	}
	if got := run(t, `decodeURIComponent("a%20b%26c")`).StringValue(); got != "a b&c" {
		t.Errorf("decodeURIComponent = %q", got)
	}
	if got := run(t, `typeof Date.now()`).StringValue(); got != "number" {
		t.Errorf("Date.now type = %q", got)
	}
}

func TestEqualitySemantics(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`1 == "1"`, true},
		{`1 === "1"`, false},
		{`null == undefined`, true},
		{`null === undefined`, false},
		{`"a" === "a"`, true},
		{`({}) === ({})`, false},
	}
	for _, c := range cases {
		if got := run(t, c.src).Truthy(); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestHostFunctionsAndBridges(t *testing.T) {
	vm := New()
	var received []string
	bridge := NewObject()
	bridge.SetFunc("postMessage", func(c Call) (Value, error) {
		received = append(received, c.Arg(0).StringValue())
		return Undefined(), nil
	})
	vm.Global.Set("NativeBridge", ObjectValue(bridge))
	if _, err := vm.Run(`NativeBridge.postMessage(JSON.stringify({event: "ready", n: 1}));`); err != nil {
		t.Fatal(err)
	}
	if len(received) != 1 || received[0] != `{"event":"ready","n":1}` {
		t.Errorf("received = %v", received)
	}
}

func TestCallFunctionFromGo(t *testing.T) {
	vm := New()
	if _, err := vm.Run(`function add(a, b) { return a + b; }`); err != nil {
		t.Fatal(err)
	}
	fn := vm.Global.Get("add")
	if fn.IsUndefined() {
		// Function declarations at top level land in the global scope; expose
		// them via a second Run.
		v, err := vm.Run(`add`)
		if err != nil {
			t.Fatal(err)
		}
		fn = v
	}
	got, err := vm.CallFunction(fn, Undefined(), Number(2), Number(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumberValue() != 5 {
		t.Errorf("add(2,3) = %v", got.NumberValue())
	}
}

func TestStepBudgetStopsInfiniteLoop(t *testing.T) {
	vm := New()
	vm.MaxSteps = 50_000
	if _, err := vm.Run(`while (true) { var x = 1; }`); err == nil {
		t.Error("infinite loop terminated without error")
	}
}

func TestThisBinding(t *testing.T) {
	src := `
var obj = {
    n: 41,
    get: function() { return this.n + 1; }
};
obj.get();`
	if got := run(t, src).NumberValue(); got != 42 {
		t.Errorf("this binding = %v", got)
	}
}

func TestCallAndApply(t *testing.T) {
	src := `
function who() { return this.name; }
who.call({name: "called"});`
	if got := run(t, src).StringValue(); got != "called" {
		t.Errorf("call = %q", got)
	}
	src2 := `
function sum(a, b) { return a + b; }
sum.apply(null, [4, 5]);`
	if got := run(t, src2).NumberValue(); got != 9 {
		t.Errorf("apply = %v", got)
	}
}

func TestTypeofUndeclared(t *testing.T) {
	if got := run(t, `typeof neverDeclared`).StringValue(); got != "undefined" {
		t.Errorf("typeof undeclared = %q", got)
	}
	vm := New()
	if _, err := vm.Run(`neverDeclared + 1`); err == nil {
		t.Error("use of undeclared variable succeeded")
	}
}

func TestParseErrors(t *testing.T) {
	vm := New()
	for _, src := range []string{
		`function (`, `var = 3`, `if (x`, `{`, `"unterminated`,
		`for (;;`, `1 +`, `a.`, `try {}`,
	} {
		if _, err := vm.Run(src); err == nil {
			t.Errorf("Run(%q) unexpectedly succeeded", src)
		}
	}
}

// TestHostileSourcesFail pins that every input that once hung or crashed
// the engine returns its error promptly, at the default step budget.
func TestHostileSourcesFail(t *testing.T) {
	for _, h := range hostileSources {
		start := time.Now()
		_, err := New().Run(h.src)
		name := h.src[:min(len(h.src), 24)]
		if err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%q: err = %v, want %q", name, err, h.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%q: took %v", name, d)
		}
	}
	_, err := New().Run(`function f() { return f() } f()`)
	if !errors.Is(err, ErrCallDepth) {
		t.Errorf("unbounded recursion: err = %v, want ErrCallDepth", err)
	}
}

// TestNonASCIIIdentifiers pins that the lexer still accepts non-ASCII
// letters in identifiers.
func TestNonASCIIIdentifiers(t *testing.T) {
	if got := run(t, `var café = 1; café + 1`).NumberValue(); got != 2 {
		t.Errorf("café + 1 = %v", got)
	}
	if got := run(t, `été = 1; été`).NumberValue(); got != 1 {
		t.Errorf("été = %v", got)
	}
}

func TestSwitchLikeChains(t *testing.T) {
	// else-if chains substitute for switch in measured scripts.
	src := `
function classify(n) {
    if (n < 10) { return "small"; }
    else if (n < 100) { return "medium"; }
    else { return "large"; }
}
classify(5) + classify(50) + classify(500);`
	if got := run(t, src).StringValue(); got != "smallmediumlarge" {
		t.Errorf("chain = %q", got)
	}
}

// Property: number formatting round-trips through string coercion for
// integers in the safe range.
func TestQuickNumberRoundTrip(t *testing.T) {
	vm := New()
	prop := func(n int32) bool {
		v, err := vm.Run("(" + Number(float64(n)).StringValue() + ")")
		if err != nil {
			return false
		}
		return v.NumberValue() == float64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: JSON.stringify output re-parses to an equal structure for
// string maps.
func TestQuickJSONRoundTrip(t *testing.T) {
	prop := func(keys []string, vals []int16) bool {
		o := NewObject()
		for i, k := range keys {
			if i >= len(vals) {
				break
			}
			o.Set(k, Number(float64(vals[i])))
		}
		s := jsonStringify(ObjectValue(o))
		v, err := jsonParse(s)
		if err != nil {
			return false
		}
		back := v.Object()
		if back == nil || len(back.Keys()) != len(o.Keys()) {
			return false
		}
		for _, k := range o.Keys() {
			if back.Get(k).NumberValue() != o.Get(k).NumberValue() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
