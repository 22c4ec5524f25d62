package logic

import (
	"fmt"
	"strings"
	"unicode"
)

// parse.go is a hand-written recursive-descent parser for the constraint
// syntax:
//
//	formula  := ("forall" | "exists") ident ("," ident)* ":" formula
//	          | implication
//	impl     := disj ("=>" impl)?                (right associative)
//	disj     := conj ("or" conj)*
//	conj     := unary ("and" unary)*
//	unary    := "not" unary | atom
//	atom     := "(" formula ")" | "true" | "false"
//	          | IDENT "(" term ("," term)* ")"   (predicate)
//	          | term "=" term | term "!=" term | term "in" set
//	term     := IDENT | STRING | "_"
//	set      := "{" STRING ("," STRING)* "}"
//
// A "_" argument is an anonymous variable: each occurrence becomes a fresh
// existentially quantified variable scoped to its atom. Line comments start
// with "#".

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokPunct // ( ) { } , : = != => _
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// Spaces and multi-byte identifiers and literals keep constraint text
	// above two bytes a token, so one slice of half a token per byte rarely
	// grows.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/2+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case unicode.IsSpace(rune(c)):
			l.pos++
		case c == '"':
			start := l.pos
			l.pos++
			// A literal without escapes is a slice of src; the builder
			// copies only one that holds a backslash.
			escaped := false
			var sb strings.Builder
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
					if !escaped {
						escaped = true
						sb.WriteString(l.src[start+1 : l.pos])
					}
					l.pos++
				}
				if escaped {
					sb.WriteByte(l.src[l.pos])
				}
				l.pos++
			}
			if l.pos >= len(l.src) {
				return nil, fmt.Errorf("logic: unterminated string at offset %d", start)
			}
			text := l.src[start+1 : l.pos]
			if escaped {
				text = sb.String()
			}
			l.pos++
			l.toks = append(l.toks, token{tokString, text, start})
		case isIdentStart(c) ||
			c == '_' && l.pos+1 < len(l.src) && isIdentPart(l.src[l.pos+1]):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		default:
			start := l.pos
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch {
			case two == "=>" || two == "!=":
				l.toks = append(l.toks, token{tokPunct, two, start})
				l.pos += 2
			case strings.ContainsRune("(){},:=_.", rune(c)):
				l.toks = append(l.toks, token{tokPunct, l.src[start : start+1], start})
				l.pos++
			default:
				return nil, fmt.Errorf("logic: unexpected character %q at offset %d", c, l.pos)
			}
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

// isIdentStart accepts letters. A leading '_' is handled in the lexer: a
// bare "_" is the anonymous-variable token, while "_name" lexes as an
// identifier (the parser generates "_anonN" names for wildcards, so
// "_"-prefixed identifiers are reserved and round-trip through String).
func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

type parser struct {
	toks  []token
	i     int
	fresh int // anonymous variable counter
}

func (p *parser) peek() token   { return p.toks[p.i] }
func (p *parser) next() token   { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool   { return p.peek().kind == tokEOF }
func (p *parser) save() int     { return p.i }
func (p *parser) restore(s int) { p.i = s }

func (p *parser) expect(text string) error {
	t := p.next()
	if t.kind == tokPunct && t.text == text || t.kind == tokIdent && t.text == text {
		return nil
	}
	return fmt.Errorf("logic: expected %q at offset %d, found %q", text, t.pos, t.text)
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

// Parse parses a single formula.
func Parse(src string) (Formula, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		t := p.peek()
		return nil, fmt.Errorf("logic: trailing input %q at offset %d", t.text, t.pos)
	}
	return f, nil
}

// ParseConstraints parses a constraints file: a sequence of
// "constraint NAME: FORMULA" declarations terminated by "." or end of file,
// with "#" line comments.
func ParseConstraints(src string) ([]Constraint, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Constraint
	for !p.atEOF() {
		if err := p.expect("constraint"); err != nil {
			return nil, err
		}
		name := p.next()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("logic: expected constraint name at offset %d", name.pos)
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		f, err := p.parseFormula()
		if err != nil {
			return nil, fmt.Errorf("logic: in constraint %s: %w", name.text, err)
		}
		if p.peek().kind == tokPunct && p.peek().text == "." {
			p.next()
		}
		out = append(out, Constraint{Name: name.text, F: f})
	}
	return out, nil
}

func (p *parser) parseFormula() (Formula, error) {
	if p.isKeyword("forall") || p.isKeyword("exists") {
		all := p.next().text == "forall"
		var vars []string
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("logic: expected variable name at offset %d", t.pos)
			}
			vars = append(vars, t.text)
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		body, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		return Quant{All: all, Vars: vars, F: body}, nil
	}
	return p.parseImplies()
}

func (p *parser) parseImplies() (Formula, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokPunct && p.peek().text == "=>" {
		p.next()
		// Right-hand side may start a new quantifier scope.
		r, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		return Implies{L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseOr() (Formula, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Formula, error) {
	if p.isKeyword("not") {
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	}
	if p.isKeyword("forall") || p.isKeyword("exists") {
		return p.parseFormula()
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Formula, error) {
	t := p.peek()
	switch {
	case t.kind == tokPunct && t.text == "(":
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return Truth{Value: true}, nil
	case t.kind == tokIdent && t.text == "false":
		p.next()
		return Truth{Value: false}, nil
	case t.kind == tokIdent:
		// Predicate if followed by "(", otherwise a term comparison.
		s := p.save()
		name := p.next()
		if p.peek().kind == tokPunct && p.peek().text == "(" {
			p.next()
			return p.parsePredTail(name.text)
		}
		p.restore(s)
		return p.parseComparison()
	default:
		return p.parseComparison()
	}
}

func (p *parser) parsePredTail(table string) (Formula, error) {
	var args []Term
	var anon []string
	for {
		t := p.next()
		switch {
		case t.kind == tokIdent:
			args = append(args, Var{Name: t.text})
		case t.kind == tokString:
			args = append(args, Const{Value: t.text})
		case t.kind == tokPunct && t.text == "_":
			p.fresh++
			name := fmt.Sprintf("_anon%d", p.fresh)
			anon = append(anon, name)
			args = append(args, Var{Name: name})
		default:
			return nil, fmt.Errorf("logic: expected predicate argument at offset %d, found %q", t.pos, t.text)
		}
		sep := p.next()
		if sep.kind == tokPunct && sep.text == "," {
			continue
		}
		if sep.kind == tokPunct && sep.text == ")" {
			break
		}
		return nil, fmt.Errorf("logic: expected ',' or ')' at offset %d, found %q", sep.pos, sep.text)
	}
	var f Formula = Pred{Table: table, Args: args}
	if len(anon) > 0 {
		f = Quant{All: false, Vars: anon, F: f}
	}
	return f, nil
}

func (p *parser) parseTerm() (Term, error) {
	t := p.next()
	switch {
	case t.kind == tokIdent:
		return Var{Name: t.text}, nil
	case t.kind == tokString:
		return Const{Value: t.text}, nil
	default:
		return nil, fmt.Errorf("logic: expected term at offset %d, found %q", t.pos, t.text)
	}
}

func (p *parser) parseComparison() (Formula, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	t := p.next()
	switch {
	case t.kind == tokPunct && t.text == "=":
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return Eq{L: l, R: r}, nil
	case t.kind == tokPunct && t.text == "!=":
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return Neq{L: l, R: r}, nil
	case t.kind == tokIdent && t.text == "in":
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		var vals []string
		for {
			v := p.next()
			if v.kind != tokString {
				return nil, fmt.Errorf("logic: expected string in set at offset %d", v.pos)
			}
			vals = append(vals, v.text)
			sep := p.next()
			if sep.kind == tokPunct && sep.text == "," {
				continue
			}
			if sep.kind == tokPunct && sep.text == "}" {
				break
			}
			return nil, fmt.Errorf("logic: expected ',' or '}' at offset %d", sep.pos)
		}
		return In{T: l, Values: vals}, nil
	default:
		return nil, fmt.Errorf("logic: expected comparison operator at offset %d, found %q", t.pos, t.text)
	}
}
