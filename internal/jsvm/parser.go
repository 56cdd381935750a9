package jsvm

import (
	"fmt"
)

type jsParser struct {
	lex  *jsLexer
	tok  jsToken
	prev jsToken
	// fnStack holds the functions whose bodies are being parsed; seeing an
	// `arguments` identifier marks them all (conservatively — a nested
	// mention keeps the outer arrays too, which is always safe).
	fnStack []*funcLit
	// depth counts the statement, assignment and unary productions being
	// parsed (every recursive path of the grammar passes through one),
	// plus the operators and member/call suffixes of the left-deep chain
	// being built, so it bounds the height of the AST as well.
	depth int
}

// maxNesting bounds the parser's recursion and the AST's height. A script
// body can be megabytes of attacker-controlled text; nesting it a million
// levels deep would overflow the goroutine stack in the parser or the
// compiler, a fatal error rather than a parse error.
const maxNesting = 1000

// enter descends one nesting level. Callers undo it with leave, or by
// restoring the depth they saved.
func (p *jsParser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return fmt.Errorf("jsvm: line %d: nesting deeper than %d", p.tok.line, maxNesting)
	}
	return nil
}

func (p *jsParser) leave() { p.depth-- }

// parseProgram parses a whole script into a statement list.
func parseProgram(src string) ([]node, error) {
	p := &jsParser{lex: newJSLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var body []node
	for p.tok.kind != tEOF {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	return body, nil
}

func (p *jsParser) advance() error {
	p.prev = p.tok
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	if t.kind == tIdent && t.text == "arguments" {
		for _, fn := range p.fnStack {
			fn.usesArgs = true
		}
	}
	return nil
}

func (p *jsParser) isPunct(s string) bool { return p.tok.kind == tPunct && p.tok.text == s }

func (p *jsParser) isKeyword(s string) bool { return p.tok.kind == tKeyword && p.tok.text == s }

func (p *jsParser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return fmt.Errorf("jsvm: line %d: expected %q, found %q", p.tok.line, s, p.tok.text)
	}
	return p.advance()
}

// consumeSemicolon implements pragmatic ASI: an explicit ';', or a '}' /
// EOF / newline boundary.
func (p *jsParser) consumeSemicolon() error {
	if p.isPunct(";") {
		return p.advance()
	}
	if p.isPunct("}") || p.tok.kind == tEOF || p.tok.nlBefore {
		return nil
	}
	return fmt.Errorf("jsvm: line %d: expected ';', found %q", p.tok.line, p.tok.text)
}

func (p *jsParser) statement() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.isPunct("{"):
		return p.block()
	case p.isPunct(";"):
		ln := p.tok.line
		return blockStmt{pos{ln}, nil}, p.advance()
	case p.isKeyword("var") || p.isKeyword("let") || p.isKeyword("const"):
		return p.varStatement()
	case p.isKeyword("function"):
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		fn, err := p.functionRest(true)
		if err != nil {
			return nil, err
		}
		return funcDecl{pos{ln}, fn}, nil
	case p.isKeyword("if"):
		return p.ifStatement()
	case p.isKeyword("for"):
		return p.forStatement()
	case p.isKeyword("while"):
		return p.whileStatement()
	case p.isKeyword("return"):
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isPunct(";") || p.isPunct("}") || p.tok.kind == tEOF || p.tok.nlBefore {
			_ = p.consumeSemicolon()
			return returnStmt{pos{ln}, nil}, nil
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return returnStmt{pos{ln}, v}, p.consumeSemicolon()
	case p.isKeyword("break"):
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		return breakStmt{pos{ln}}, p.consumeSemicolon()
	case p.isKeyword("continue"):
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		return continueStmt{pos{ln}}, p.consumeSemicolon()
	case p.isKeyword("throw"):
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return throwStmt{pos{ln}, v}, p.consumeSemicolon()
	case p.isKeyword("try"):
		return p.tryStatement()
	default:
		ln := p.tok.line
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return exprStmt{pos{ln}, e}, p.consumeSemicolon()
	}
}

func (p *jsParser) block() (node, error) {
	ln := p.tok.line
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var body []node
	for !p.isPunct("}") {
		if p.tok.kind == tEOF {
			return nil, fmt.Errorf("jsvm: line %d: unterminated block", ln)
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	return blockStmt{pos{ln}, body}, p.advance()
}

func (p *jsParser) varStatement() (node, error) {
	decl, err := p.varDeclNoSemi()
	if err != nil {
		return nil, err
	}
	return decl, p.consumeSemicolon()
}

func (p *jsParser) varDeclNoSemi() (varDecl, error) {
	ln := p.tok.line
	if err := p.advance(); err != nil { // var/let/const
		return varDecl{}, err
	}
	d := varDecl{pos: pos{ln}}
	for {
		if p.tok.kind != tIdent {
			return d, fmt.Errorf("jsvm: line %d: expected identifier in declaration, found %q", p.tok.line, p.tok.text)
		}
		d.names = append(d.names, p.tok.text)
		if err := p.advance(); err != nil {
			return d, err
		}
		if p.isPunct("=") {
			if err := p.advance(); err != nil {
				return d, err
			}
			v, err := p.assignment()
			if err != nil {
				return d, err
			}
			d.values = append(d.values, v)
		} else {
			d.values = append(d.values, nil)
		}
		if !p.isPunct(",") {
			return d, nil
		}
		if err := p.advance(); err != nil {
			return d, err
		}
	}
}

func (p *jsParser) ifStatement() (node, error) {
	ln := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	var alt node
	if p.isKeyword("else") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		alt, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return ifStmt{pos{ln}, cond, then, alt}, nil
}

func (p *jsParser) forStatement() (node, error) {
	ln := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	// for (var x in obj) / for (var x of arr)
	if p.isKeyword("var") || p.isKeyword("let") || p.isKeyword("const") {
		save := *p.lex
		saveTok, savePrev := p.tok, p.prev
		decl, err := p.varDeclNoSemi()
		if err != nil {
			return nil, err
		}
		if (p.isKeyword("in") || p.isKeyword("of")) && len(decl.names) == 1 {
			of := p.tok.text == "of"
			if err := p.advance(); err != nil {
				return nil, err
			}
			obj, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			body, err := p.statement()
			if err != nil {
				return nil, err
			}
			return forInStmt{pos{ln}, decl.names[0], of, obj, body}, nil
		}
		// Classic loop with var init: rewind is unnecessary — we already
		// have the decl; continue from the ';'.
		_ = save
		_ = saveTok
		_ = savePrev
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return p.forRest(ln, decl)
	}

	var init node
	if !p.isPunct(";") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		init = exprStmt{pos{ln}, e}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return p.forRest(ln, init)
}

func (p *jsParser) forRest(ln int, init node) (node, error) {
	var cond, post node
	var err error
	if !p.isPunct(";") {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return forStmt{pos{ln}, init, cond, post, body}, nil
}

func (p *jsParser) whileStatement() (node, error) {
	ln := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return whileStmt{pos{ln}, cond, body}, nil
}

func (p *jsParser) tryStatement() (node, error) {
	ln := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := tryStmt{pos: pos{ln}, body: body}
	if p.isKeyword("catch") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tIdent {
				return nil, fmt.Errorf("jsvm: line %d: expected catch parameter", p.tok.line)
			}
			st.catchVar = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		st.catchBody, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.isKeyword("finally") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		st.finally, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if st.catchBody == nil && st.finally == nil {
		return nil, fmt.Errorf("jsvm: line %d: try without catch or finally", ln)
	}
	return st, nil
}

// functionRest parses "name(params) { body }" after the function keyword.
func (p *jsParser) functionRest(needName bool) (*funcLit, error) {
	fn := &funcLit{pos: pos{p.tok.line}}
	if p.tok.kind == tIdent {
		fn.name = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if needName {
		return nil, fmt.Errorf("jsvm: line %d: function declaration needs a name", p.tok.line)
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.isPunct(")") {
		if p.tok.kind != tIdent {
			return nil, fmt.Errorf("jsvm: line %d: expected parameter name, found %q", p.tok.line, p.tok.text)
		}
		fn.params = append(fn.params, p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // ')'
		return nil, err
	}
	p.fnStack = append(p.fnStack, fn)
	body, err := p.block()
	p.fnStack = p.fnStack[:len(p.fnStack)-1]
	if err != nil {
		return nil, err
	}
	fn.body = body.(blockStmt).body
	return fn, nil
}

// Expression parsing, precedence climbing.

func (p *jsParser) expression() (node, error) {
	e, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if !p.isPunct(",") {
		return e, nil
	}
	seq := seqExpr{pos{p.tok.line}, []node{e}}
	for p.isPunct(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.assignment()
		if err != nil {
			return nil, err
		}
		seq.exprs = append(seq.exprs, next)
	}
	return seq, nil
}

var assignOps = map[string]bool{"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true}

func (p *jsParser) assignment() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.conditional()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tPunct && assignOps[p.tok.text] {
		op := p.tok.text
		ln := p.tok.line
		switch left.(type) {
		case identExpr, memberExpr:
		default:
			return nil, fmt.Errorf("jsvm: line %d: invalid assignment target", ln)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.assignment()
		if err != nil {
			return nil, err
		}
		return assignExpr{pos{ln}, op, left, right}, nil
	}
	return left, nil
}

func (p *jsParser) conditional() (node, error) {
	cond, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	ln := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	alt, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return condExpr{pos{ln}, cond, then, alt}, nil
}

// binary operator precedence levels.
var binPrec = map[string]int{
	"||": 1, "??": 1,
	"&&": 2,
	"|":  3, "^": 3, "&": 3,
	"==": 4, "!=": 4, "===": 4, "!==": 4,
	"<": 5, ">": 5, "<=": 5, ">=": 5, "instanceof": 5, "in": 5,
	"<<": 6, ">>": 6, ">>>": 6,
	"+": 7, "-": 7,
	"*": 8, "/": 8, "%": 8,
}

func (p *jsParser) binary(minPrec int) (node, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	defer func(depth int) { p.depth = depth }(p.depth)
	for {
		op := p.tok.text
		if p.tok.kind != tPunct && !(p.tok.kind == tKeyword && (op == "instanceof" || op == "in")) {
			return left, nil
		}
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return left, nil
		}
		ln := p.tok.line
		if err := p.enter(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		if op == "&&" || op == "||" || op == "??" {
			left = logicalExpr{pos{ln}, op, left, right}
		} else {
			left = binaryExpr{pos{ln}, op, left, right}
		}
	}
}

func (p *jsParser) unary() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	ln := p.tok.line
	switch {
	case p.isPunct("!") || p.isPunct("-") || p.isPunct("+") || p.isPunct("~"):
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{pos{ln}, op, e}, nil
	case p.isKeyword("typeof") || p.isKeyword("void") || p.isKeyword("delete"):
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{pos{ln}, op, e}, nil
	case p.isPunct("++") || p.isPunct("--"):
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return updateExpr{pos{ln}, op, e, true}, nil
	}
	return p.postfix()
}

func (p *jsParser) postfix() (node, error) {
	e, err := p.callMember()
	if err != nil {
		return nil, err
	}
	if (p.isPunct("++") || p.isPunct("--")) && !p.tok.nlBefore {
		op := p.tok.text
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		return updateExpr{pos{ln}, op, e, false}, nil
	}
	return e, nil
}

func (p *jsParser) callMember() (node, error) {
	var e node
	var err error
	if p.isKeyword("new") {
		ln := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		callee, err := p.callMemberNoCall()
		if err != nil {
			return nil, err
		}
		var args []node
		if p.isPunct("(") {
			args, err = p.arguments()
			if err != nil {
				return nil, err
			}
		}
		e = newExpr{pos{ln}, callee, args}
	} else {
		e, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	return p.memberChain(e, true)
}

// callMemberNoCall parses the callee of new: member accesses bind tighter
// than the construction call.
func (p *jsParser) callMemberNoCall() (node, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	return p.memberChain(e, false)
}

func (p *jsParser) memberChain(e node, allowCall bool) (node, error) {
	defer func(depth int) { p.depth = depth }(p.depth)
	for {
		if err := p.enter(); err != nil {
			return nil, err
		}
		switch {
		case p.isPunct("."):
			ln := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tIdent && p.tok.kind != tKeyword {
				return nil, fmt.Errorf("jsvm: line %d: expected property name, found %q", p.tok.line, p.tok.text)
			}
			e = memberExpr{pos{ln}, e, p.tok.text, nil}
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.isPunct("["):
			ln := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = memberExpr{pos{ln}, e, "", idx}
		case allowCall && p.isPunct("("):
			ln := p.tok.line
			args, err := p.arguments()
			if err != nil {
				return nil, err
			}
			e = callExpr{pos{ln}, e, args}
		default:
			return e, nil
		}
	}
}

func (p *jsParser) arguments() ([]node, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []node
	for !p.isPunct(")") {
		a, err := p.assignment()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return args, p.advance()
}

func (p *jsParser) primary() (node, error) {
	ln := p.tok.line
	switch {
	case p.tok.kind == tNumber:
		v := p.tok.num
		return numberLit{pos{ln}, v}, p.advance()
	case p.tok.kind == tString:
		v := p.tok.text
		return stringLit{pos{ln}, v}, p.advance()
	case p.isKeyword("true"):
		return boolLit{pos{ln}, true}, p.advance()
	case p.isKeyword("false"):
		return boolLit{pos{ln}, false}, p.advance()
	case p.isKeyword("null"):
		return nullLit{pos{ln}}, p.advance()
	case p.isKeyword("undefined"):
		return undefinedLit{pos{ln}}, p.advance()
	case p.isKeyword("this"):
		return thisExpr{pos{ln}}, p.advance()
	case p.isKeyword("function"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		fn, err := p.functionRest(false)
		if err != nil {
			return nil, err
		}
		return *fn, nil
	case p.tok.kind == tIdent:
		name := p.tok.text
		return identExpr{pos{ln}, name}, p.advance()
	case p.isPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	case p.isPunct("["):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit := arrayLit{pos: pos{ln}}
		for !p.isPunct("]") {
			e, err := p.assignment()
			if err != nil {
				return nil, err
			}
			lit.elems = append(lit.elems, e)
			if p.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		return lit, p.advance()
	case p.isPunct("{"):
		return p.objectLiteral()
	default:
		return nil, fmt.Errorf("jsvm: line %d: unexpected token %q", ln, p.tok.text)
	}
}

func (p *jsParser) objectLiteral() (node, error) {
	ln := p.tok.line
	if err := p.advance(); err != nil { // '{'
		return nil, err
	}
	lit := objectLit{pos: pos{ln}}
	for !p.isPunct("}") {
		var key string
		switch {
		case p.tok.kind == tIdent || p.tok.kind == tKeyword:
			key = p.tok.text
		case p.tok.kind == tString:
			key = p.tok.text
		case p.tok.kind == tNumber:
			key = formatNumber(p.tok.num)
		default:
			return nil, fmt.Errorf("jsvm: line %d: bad object key %q", p.tok.line, p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		v, err := p.assignment()
		if err != nil {
			return nil, err
		}
		lit.props = append(lit.props, propPair{key, v})
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return lit, p.advance()
}
