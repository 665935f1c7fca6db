// Package lang implements the rule language front-end: an OPS5-style
// surface syntax for productions and initial working memory, with a
// lexer, a recursive-descent parser producing the engine's rule IR,
// and a printer whose output re-parses (round-trips). Example:
//
//	; parts ready on a free machine get processed
//	(p process :priority 2
//	  (part ^id <x> ^status ready)
//	  (machine ^accepts <x> ^free true)
//	  -(hold ^part <x>)
//	  -->
//	  (modify 1 ^status done)
//	  (make log ^part <x> ^note "processed"))
//
//	(wme part ^id 1 ^status ready)
package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates token types.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokLParen
	tokRParen
	tokIdent  // bare symbol: class names, rule names, keywords
	tokAttr   // ^name
	tokVar    // <name>
	tokInt    // 42, -7
	tokFloat  // 2.5
	tokString // "..."
	tokKeyOpt // :priority, :reads
	tokArrow  // -->
	tokNeg    // - immediately before ( : negated CE
	tokOp     // <> < <= > >= = + * / %
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokIdent:
		return "identifier"
	case tokAttr:
		return "attribute"
	case tokVar:
		return "variable"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokKeyOpt:
		return "option"
	case tokArrow:
		return "'-->'"
	case tokNeg:
		return "'-'"
	case tokOp:
		return "operator"
	}
	return "token"
}

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

// Error is a parse or lex error with source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("lang: %d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (token, *Error) {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == ';':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			goto lex
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil

lex:
	line, col := l.line, l.col
	mk := func(k tokKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	c := l.advance()
	switch {
	case c == '(':
		return mk(tokLParen, "("), nil
	case c == ')':
		return mk(tokRParen, ")"), nil
	case c == '^':
		name, err := l.ident()
		if err != nil {
			return token{}, err
		}
		return mk(tokAttr, name), nil
	case c == ':':
		name, err := l.ident()
		if err != nil {
			return token{}, err
		}
		return mk(tokKeyOpt, name), nil
	case c == '"':
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated string")
			}
			ch := l.advance()
			if ch == '"' {
				return mk(tokString, b.String()), nil
			}
			if ch == '\\' {
				// Go escape syntax, the inverse of the strconv quoting
				// the printer renders strings with (\x85, \u00e9, \a).
				// No escape spans a newline, so advancing over its
				// bytes keeps line and column right.
				rest := l.src[l.pos-1:]
				r, multibyte, tail, err := strconv.UnquoteChar(rest, '"')
				if err != nil {
					if l.pos >= len(l.src) {
						return token{}, l.errf("unterminated escape")
					}
					return token{}, l.errf("bad escape \\%c", l.peekByte())
				}
				for n := len(rest) - len(tail) - 1; n > 0; n-- {
					l.advance()
				}
				if r < utf8.RuneSelf || !multibyte {
					b.WriteByte(byte(r))
				} else {
					b.WriteRune(r)
				}
				continue
			}
			b.WriteByte(ch)
		}
	case c == '<':
		// <name> is a variable; <=, <>, << are operators; bare < too.
		switch {
		case l.peekByte() == '=':
			l.advance()
			return mk(tokOp, "<="), nil
		case l.peekByte() == '>':
			l.advance()
			return mk(tokOp, "<>"), nil
		case l.peekByte() == '<':
			l.advance()
			return mk(tokOp, "<<"), nil
		case isIdentStart(l.peekByte()):
			name, err := l.ident()
			if err != nil {
				return token{}, err
			}
			if l.peekByte() != '>' {
				return token{}, l.errf("variable <%s missing closing '>'", name)
			}
			l.advance()
			return mk(tokVar, name), nil
		default:
			return mk(tokOp, "<"), nil
		}
	case c == '>':
		if l.peekByte() == '=' {
			l.advance()
			return mk(tokOp, ">="), nil
		}
		if l.peekByte() == '>' {
			l.advance()
			return mk(tokOp, ">>"), nil
		}
		return mk(tokOp, ">"), nil
	case c == '=':
		return mk(tokOp, "="), nil
	case c == '+' || c == '*' || c == '/' || c == '%':
		return mk(tokOp, string(c)), nil
	case c == '-':
		switch {
		case l.peekByte() == '-':
			l.advance()
			if l.peekByte() != '>' {
				return token{}, l.errf("expected '-->'")
			}
			l.advance()
			return mk(tokArrow, "-->"), nil
		case isDigit(l.peekByte()):
			return l.number(mk, "-")
		case l.peekByte() == '(':
			return mk(tokNeg, "-"), nil
		default:
			return mk(tokOp, "-"), nil
		}
	case isDigit(c):
		return l.number(mk, string(c))
	case isIdentStart(c):
		l.pos--
		l.col--
		name, err := l.ident()
		if err != nil {
			return token{}, err
		}
		return mk(tokIdent, name), nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

// ident consumes an identifier starting at the current position.
func (l *lexer) ident() (string, *Error) {
	start := l.pos
	if l.pos >= len(l.src) || !isIdentStart(l.peekByte()) {
		return "", l.errf("expected identifier")
	}
	for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
		l.advance()
	}
	return l.src[start:l.pos], nil
}

// number consumes the rest of a numeric literal; prefix holds sign and
// any already-consumed digit.
func (l *lexer) number(mk func(tokKind, string) token, prefix string) (token, *Error) {
	var b strings.Builder
	b.WriteString(prefix)
	isFloat := false
	for l.pos < len(l.src) {
		c := l.peekByte()
		if isDigit(c) {
			b.WriteByte(l.advance())
			continue
		}
		if c == '.' && !isFloat {
			isFloat = true
			b.WriteByte(l.advance())
			continue
		}
		break
	}
	if isFloat {
		return mk(tokFloat, b.String()), nil
	}
	return mk(tokInt, b.String()), nil
}

// lexAll tokenizes the whole input (used by tests).
func lexAll(src string) ([]token, *Error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
