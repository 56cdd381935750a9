package jsvm

// AST node types. compile.go lowers these to bytecode; positions are
// line numbers for error reporting.

type node interface{ line() int }

type pos struct{ ln int }

func (p pos) line() int { return p.ln }

// Expressions.

type numberLit struct {
	pos
	val float64
}

type stringLit struct {
	pos
	val string
}

type boolLit struct {
	pos
	val bool
}

type nullLit struct{ pos }

type undefinedLit struct{ pos }

type thisExpr struct{ pos }

type identExpr struct {
	pos
	name string
}

type arrayLit struct {
	pos
	elems []node
}

type propPair struct {
	key string
	val node
}

type objectLit struct {
	pos
	props []propPair
}

type funcLit struct {
	pos
	name   string
	params []string
	body   []node
	// usesArgs marks bodies that may reference `arguments` (set
	// conservatively at parse time); when false, calls skip building the
	// arguments array.
	usesArgs bool
}

type memberExpr struct {
	pos
	obj      node
	prop     string // static property; "" when computed
	computed node   // index expression when computed
}

type callExpr struct {
	pos
	callee node
	args   []node
}

type newExpr struct {
	pos
	callee node
	args   []node
}

type unaryExpr struct {
	pos
	op   string // "!", "-", "+", "typeof", "void", "delete"
	expr node
}

type updateExpr struct {
	pos
	op     string // "++" or "--"
	target node
	prefix bool
}

type binaryExpr struct {
	pos
	op    string
	left  node
	right node
}

type logicalExpr struct {
	pos
	op    string // "&&" or "||"
	left  node
	right node
}

type condExpr struct {
	pos
	cond node
	then node
	alt  node
}

type assignExpr struct {
	pos
	op     string // "=", "+=", "-=", "*=", "/=", "%="
	target node   // identExpr or memberExpr
	value  node
}

type seqExpr struct {
	pos
	exprs []node
}

// Statements.

type varDecl struct {
	pos
	names  []string
	values []node // nil entries mean undefined
}

type exprStmt struct {
	pos
	expr node
}

type blockStmt struct {
	pos
	body []node
}

type ifStmt struct {
	pos
	cond node
	then node
	alt  node // may be nil
}

type forStmt struct {
	pos
	init node // statement or nil
	cond node // expression or nil
	post node // expression or nil
	body node
}

type forInStmt struct {
	pos
	varName string
	of      bool // for-of (iterates values) vs for-in (keys)
	obj     node
	body    node
}

type whileStmt struct {
	pos
	cond node
	body node
}

type returnStmt struct {
	pos
	value node // may be nil
}

type breakStmt struct{ pos }

type continueStmt struct{ pos }

type throwStmt struct {
	pos
	value node
}

type tryStmt struct {
	pos
	body      node
	catchVar  string
	catchBody node // may be nil
	finally   node // may be nil
}

type funcDecl struct {
	pos
	fn *funcLit
}
