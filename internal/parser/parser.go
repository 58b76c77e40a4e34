package parser

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Parse parses DSL source into a validated ir.Program. The first lexical,
// syntactic or semantic error is returned with its source position.
func Parse(src string) (*ir.Program, error) {
	prog, err := ParseNoValidate(src)
	if err != nil {
		return nil, err
	}
	if errs := ir.Validate(prog); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("%s", strings.Join(msgs, "\n"))
	}
	return prog, nil
}

// ParseNoValidate parses DSL source without running ir.Validate, so
// diagnostics passes (internal/lint) can report every semantic problem as a
// structured finding instead of receiving one flattened error.
func ParseNoValidate(src string) (*ir.Program, error) {
	p := &parser{lx: newLexer(src), procs: map[string]*proc{}}
	if err := p.prime(); err != nil {
		return nil, err
	}
	return p.parseProgram()
}

// maxDepth bounds how deeply statement bodies, expressions and unary
// operators nest in one source. Each level is a parser recursion, and the
// trees the parser builds are walked recursively after it, so a hostile
// source that nests without bound would exhaust the stack, which is fatal
// in Go; past maxDepth Parse returns an error instead. No program of the
// suites, testdata/, examples/ or the benchmark nests deeper than 7.
const maxDepth = 1000

type parser struct {
	lx  *lexer
	tok token
	// procs holds subroutines available for `call` inlining.
	procs     map[string]*proc
	inlineSeq int
	// depth counts the statement bodies, expressions and unary operators
	// being parsed, each a recursion; see maxDepth.
	depth int
}

func (p *parser) prime() error { return p.advance() }

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

// nest enters one more level of nesting: the caller decrements p.depth when
// the level is parsed. Past maxDepth it fails at the current token; a
// failed parse stops there, so no caller unwinds the count. The message is
// formatted once, so that nest stays small enough to inline.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxDepth {
		return &Error{Pos: p.tok.pos, Msg: tooDeep}
	}
	return nil
}

var tooDeep = fmt.Sprintf("nesting deeper than %d levels", maxDepth)

// keyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.describe())
	}
	return p.advance()
}

func (p *parser) expect(k tokKind) error {
	if p.tok.kind != k {
		return p.errorf("expected %s, found %s", k, p.describe())
	}
	return p.advance()
}

func (p *parser) describe() string {
	switch p.tok.kind {
	case tokIdent:
		return fmt.Sprintf("%q", p.tok.text)
	case tokInt, tokFloat:
		return fmt.Sprintf("number %s", p.tok.text)
	default:
		return p.tok.kind.String()
	}
}

func (p *parser) skipNewlines() error {
	for p.tok.kind == tokNewline {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) endOfStmt() error {
	if p.tok.kind != tokNewline && p.tok.kind != tokEOF {
		return p.errorf("expected end of statement, found %s", p.describe())
	}
	return p.skipNewlines()
}

func (p *parser) parseProgram() (*ir.Program, error) {
	if err := p.skipNewlines(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("program"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, p.errorf("expected program name, found %s", p.describe())
	}
	prog := &ir.Program{Name: p.tok.text, DeclPos: map[string]ir.Pos{}}
	declare := func(name string, pos ir.Pos) {
		// First declaration wins; Validate reports the duplicate.
		if _, dup := prog.DeclPos[name]; !dup {
			prog.DeclPos[name] = pos
		}
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}

	// Declarations.
	for {
		switch {
		case p.keyword("param"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				if p.tok.kind != tokIdent {
					return nil, p.errorf("expected parameter name, found %s", p.describe())
				}
				prog.Params = append(prog.Params, p.tok.text)
				declare(p.tok.text, p.tok.pos)
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
		case p.keyword("real"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				if p.tok.kind != tokIdent {
					return nil, p.errorf("expected declaration name, found %s", p.describe())
				}
				name := p.tok.text
				namePos := p.tok.pos
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.tok.kind == tokLParen {
					dims, err := p.parseExprList()
					if err != nil {
						return nil, err
					}
					prog.Arrays = append(prog.Arrays, &ir.ArrayDecl{Name: name, Dims: dims, P: namePos})
				} else {
					prog.Scalars = append(prog.Scalars, name)
				}
				declare(name, namePos)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
		default:
			goto subs
		}
	}
subs:
	for p.keyword("sub") {
		pr, err := p.parseSub()
		if err != nil {
			return nil, err
		}
		if _, dup := p.procs[pr.name]; dup {
			return nil, &Error{Pos: pr.pos, Msg: fmt.Sprintf("subroutine %s redefined", pr.name)}
		}
		p.procs[pr.name] = pr
	}
	stmts, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	prog.Body = stmts
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	if err := p.skipNewlines(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after end of program", p.describe())
	}
	return prog, nil
}

// parseStmts parses statements until an `end` or `else` keyword.
func (p *parser) parseStmts() ([]ir.Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	var out []ir.Stmt
	for {
		if err := p.skipNewlines(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokEOF || p.keyword("end") || p.keyword("else") {
			p.depth--
			return out, nil
		}
		if p.keyword("call") {
			inlined, err := p.parseCall()
			if err != nil {
				return nil, err
			}
			out = append(out, inlined...)
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) parseStmt() (ir.Stmt, error) {
	pos := p.tok.pos
	switch {
	case p.keyword("parallel"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.keyword("do") {
			return nil, p.errorf("expected \"do\" after \"parallel\"")
		}
		return p.parseLoop(pos, true)
	case p.keyword("do"):
		return p.parseLoop(pos, false)
	case p.keyword("if"):
		return p.parseIf(pos)
	case p.tok.kind == tokIdent:
		return p.parseAssign(pos)
	default:
		return nil, p.errorf("expected statement, found %s", p.describe())
	}
}

func (p *parser) parseLoop(pos ir.Pos, parallel bool) (ir.Stmt, error) {
	if err := p.advance(); err != nil { // consume "do"
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, p.errorf("expected loop index, found %s", p.describe())
	}
	loop := &ir.Loop{Index: p.tok.text, Parallel: parallel, P: pos}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokComma); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	loop.Lo, loop.Hi = lo, hi
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	loop.Body = body
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("do"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return loop, nil
}

func (p *parser) parseIf(pos ir.Pos) (ir.Stmt, error) {
	if err := p.advance(); err != nil { // consume "if"
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	then, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	node := &ir.If{Cond: cond, Then: then, P: pos}
	if p.keyword("else") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		els, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("if"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *parser) parseAssign(pos ir.Pos) (ir.Stmt, error) {
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	lhs := &ir.Ref{Name: name, P: pos}
	if p.tok.kind == tokLParen {
		subs, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		lhs.Subs = subs
	}
	if err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return &ir.Assign{LHS: lhs, RHS: rhs, P: pos}, nil
}

// parseExprList parses "(" expr {"," expr} ")".
func (p *parser) parseExprList() ([]ir.Expr, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var out []ir.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return out, nil
}

// Precedence-climbing expression parser.

func (p *parser) parseExpr() (ir.Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	p.depth--
	return e, err
}

func (p *parser) parseOr() (ir.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: ir.OrOp, L: l, R: r, P: pos}
	}
	return l, nil
}

func (p *parser) parseAnd() (ir.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: ir.AndOp, L: l, R: r, P: pos}
	}
	return l, nil
}

func (p *parser) parseNot() (ir.Expr, error) {
	if p.tok.kind == tokNot {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &ir.Unary{Op: '!', X: x, P: pos}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[tokKind]ir.BinKind{
	tokEq: ir.EqOp, tokNe: ir.NeOp, tokLt: ir.LtOp,
	tokLe: ir.LeOp, tokGt: ir.GtOp, tokGe: ir.GeOp,
}

func (p *parser) parseCmp() (ir.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.tok.kind]; ok {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &ir.Bin{Op: op, L: l, R: r, P: pos}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (ir.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := ir.Add
		if p.tok.kind == tokMinus {
			op = ir.Sub
		}
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: op, L: l, R: r, P: pos}
	}
	return l, nil
}

func (p *parser) parseMul() (ir.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := ir.Mul
		if p.tok.kind == tokSlash {
			op = ir.Div
		}
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: op, L: l, R: r, P: pos}
	}
	return l, nil
}

func (p *parser) parseUnary() (ir.Expr, error) {
	if p.tok.kind == tokMinus {
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &ir.Unary{Op: '-', X: x, P: pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ir.Expr, error) {
	pos := p.tok.pos
	switch p.tok.kind {
	case tokInt:
		v := p.tok.ival
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ir.Num{Val: float64(v), Int: v, IsInt: true, P: pos}, nil
	case tokFloat:
		v := p.tok.fval
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ir.Num{Val: v, P: pos}, nil
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return &ir.Ref{Name: name, P: pos}, nil
		}
		args, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if ir.IsIntrinsic(strings.ToLower(name)) {
			return &ir.Call{Name: strings.ToLower(name), Args: args, P: pos}, nil
		}
		return &ir.Ref{Name: name, Subs: args, P: pos}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errorf("expected expression, found %s", p.describe())
	}
}
