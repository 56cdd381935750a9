package jsvm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/intern"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tKeyword
	tNumber
	tString
	tPunct
)

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true, "return": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"break": true, "continue": true, "new": true, "delete": true,
	"typeof": true, "instanceof": true, "in": true, "of": true,
	"try": true, "catch": true, "finally": true, "throw": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"this": true, "switch": true, "case": true, "default": true, "void": true,
}

type jsToken struct {
	kind tokKind
	text string
	num  float64
	line int
	// nlBefore marks a newline between the previous token and this one
	// (used for restricted productions like return).
	nlBefore bool
}

type jsLexer struct {
	src  string
	pos  int
	line int
}

func newJSLexer(src string) *jsLexer { return &jsLexer{src: src, line: 1} }

// punctuators, longest first per leading byte.
var punct3 = []string{"===", "!==", ">>>", "**=", "..."}
var punct2 = []string{
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "=>", "<<", ">>", "??",
}

func (l *jsLexer) next() (jsToken, error) {
	nl := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			nl = true
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return jsToken{}, fmt.Errorf("line %d: unterminated comment", l.line)
			}
			seg := l.src[l.pos : l.pos+2+end+2]
			l.line += strings.Count(seg, "\n")
			if strings.Contains(seg, "\n") {
				nl = true
			}
			l.pos += len(seg)
		default:
			tok, err := l.lexToken()
			tok.nlBefore = nl
			return tok, err
		}
	}
	return jsToken{kind: tEOF, line: l.line, nlBefore: nl}, nil
}

func (l *jsLexer) lexToken() (jsToken, error) {
	c := l.src[l.pos]
	r := rune(c)
	if c >= utf8.RuneSelf {
		// Outside strings and comments a non-ASCII rune must start an
		// identifier; anything else (or invalid UTF-8) would otherwise lex
		// as an empty token that never advances.
		r, _ = utf8.DecodeRuneInString(l.src[l.pos:])
		if !isJSIdentStart(r) {
			return jsToken{}, fmt.Errorf("jsvm: line %d: unexpected character %q", l.line, r)
		}
	}
	switch {
	case isJSIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) {
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isJSIdentPart(r) {
				break
			}
			l.pos += size
		}
		text := l.src[start:l.pos]
		kind := tIdent
		if keywords[text] {
			kind = tKeyword
		}
		// Interning collapses every occurrence of an identifier to one
		// shared string and unpins the (much larger) source text from
		// long-lived cached Programs.
		return jsToken{kind: kind, text: intern.String(text), line: l.line}, nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		return l.lexNumber()
	case c == '"' || c == '\'':
		return l.lexString(c)
	case c == '`':
		return l.lexTemplate()
	default:
		for _, p := range punct3 {
			if strings.HasPrefix(l.src[l.pos:], p) {
				l.pos += 3
				return jsToken{kind: tPunct, text: p, line: l.line}, nil
			}
		}
		for _, p := range punct2 {
			if strings.HasPrefix(l.src[l.pos:], p) {
				l.pos += 2
				return jsToken{kind: tPunct, text: p, line: l.line}, nil
			}
		}
		l.pos++
		return jsToken{kind: tPunct, text: string(c), line: l.line}, nil
	}
}

func (l *jsLexer) lexNumber() (jsToken, error) {
	start := l.pos
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.pos += 2
		for l.pos < len(l.src) && isHex(l.src[l.pos]) {
			l.pos++
		}
		n, err := strconv.ParseUint(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			return jsToken{}, fmt.Errorf("line %d: bad hex literal %q", l.line, l.src[start:l.pos])
		}
		return jsToken{kind: tNumber, num: float64(n), text: l.src[start:l.pos], line: l.line}, nil
	}
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	text := l.src[start:l.pos]
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return jsToken{}, fmt.Errorf("line %d: bad number %q", l.line, text)
	}
	return jsToken{kind: tNumber, num: n, text: text, line: l.line}, nil
}

func (l *jsLexer) lexString(quote byte) (jsToken, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return jsToken{kind: tString, text: sb.String(), line: l.line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return jsToken{}, fmt.Errorf("line %d: unterminated string", l.line)
			}
			sb.WriteString(unescape(l.src[l.pos]))
			l.pos++
		case '\n':
			return jsToken{}, fmt.Errorf("line %d: newline in string", l.line)
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return jsToken{}, fmt.Errorf("line %d: unterminated string", l.line)
}

// lexTemplate handles backtick strings without ${} interpolation (enough
// for the measured scripts).
func (l *jsLexer) lexTemplate() (jsToken, error) {
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '`':
			l.pos++
			return jsToken{kind: tString, text: sb.String(), line: l.line}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return jsToken{}, fmt.Errorf("line %d: unterminated template", l.line)
			}
			sb.WriteString(unescape(l.src[l.pos]))
			l.pos++
		case '\n':
			l.line++
			sb.WriteByte(c)
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return jsToken{}, fmt.Errorf("line %d: unterminated template", l.line)
}

func unescape(c byte) string {
	switch c {
	case 'n':
		return "\n"
	case 't':
		return "\t"
	case 'r':
		return "\r"
	case '0':
		return "\x00"
	default:
		return string(c)
	}
}

func isJSIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isJSIdentPart(r rune) bool { return isJSIdentStart(r) || unicode.IsDigit(r) }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
