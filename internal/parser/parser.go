// Package parser implements a recursive-descent parser for the nanojs
// language, producing the AST defined in internal/ast.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/lexer"
	"github.com/jitbull/jitbull/internal/token"
)

// Error is a syntax error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("parse %s: %s", e.Pos, e.Msg) }

// ErrTooManyErrors is returned when parsing aborts after accumulating too
// many syntax errors.
var ErrTooManyErrors = errors.New("too many syntax errors")

const maxErrors = 20

type parser struct {
	toks []token.Token
	pos  int
	errs []error
}

// Parse parses a nanojs source string into a Program. On syntax errors it
// returns a joined error containing every diagnostic.
func Parse(src string) (*ast.Program, error) {
	lx := lexer.New(src)
	toks := lx.All()
	p := &parser{toks: toks}
	prog := p.parseProgram()
	for _, le := range lx.Errors() {
		p.errs = append(p.errs, le)
	}
	if len(p.errs) > 0 {
		return nil, errors.Join(p.errs...)
	}
	return prog, nil
}

// MustParse parses src and panics on error. It is intended for tests and
// embedded benchmark corpora that are known to be valid.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("MustParse: %v", err))
	}
	return prog
}

func (p *parser) cur() token.Token { return p.toks[p.pos] }

func (p *parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *parser) errorf(format string, args ...any) {
	if len(p.errs) >= maxErrors {
		panic(ErrTooManyErrors)
	}
	p.errs = append(p.errs, &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
}

// sync skips tokens until a likely statement boundary, for error recovery.
func (p *parser) sync() {
	for !p.at(token.EOF) {
		if p.accept(token.Semicolon) {
			return
		}
		switch p.cur().Kind {
		case token.RBrace, token.Function, token.Var, token.Let, token.Const,
			token.If, token.While, token.For, token.Return, token.Do:
			return
		}
		p.next()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	defer func() {
		if r := recover(); r != nil {
			if !errors.Is(asErr(r), ErrTooManyErrors) {
				panic(r)
			}
		}
	}()
	for !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			prog.Stmts = append(prog.Stmts, s)
		}
		if p.pos == before {
			// No progress: skip the offending token to avoid looping.
			p.errorf("unexpected token %s", p.cur())
			p.next()
		}
	}
	return prog
}

func asErr(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.Function:
		return p.parseFuncDecl()
	case token.Var, token.Let, token.Const:
		d := p.parseVarDecl()
		p.expectSemi()
		return d
	case token.LBrace:
		return p.parseBlock()
	case token.If:
		return p.parseIf()
	case token.While:
		return p.parseWhile()
	case token.Do:
		return p.parseDoWhile()
	case token.For:
		return p.parseFor()
	case token.Break:
		t := p.next()
		p.expectSemi()
		return &ast.BreakStmt{BreakPos: t.Pos}
	case token.Continue:
		t := p.next()
		p.expectSemi()
		return &ast.ContinueStmt{ContinuePos: t.Pos}
	case token.Return:
		t := p.next()
		var val ast.Expr
		if !p.at(token.Semicolon) && !p.at(token.RBrace) && !p.at(token.EOF) {
			val = p.parseExpr()
		}
		p.expectSemi()
		return &ast.ReturnStmt{ReturnPos: t.Pos, Value: val}
	case token.Semicolon:
		// Empty statement: an empty block, so `for (...) ;` and `if (...) ;`
		// carry a non-nil body downstream.
		t := p.next()
		return &ast.BlockStmt{Lbrace: t.Pos}
	default:
		x := p.parseExpr()
		p.expectSemi()
		if x == nil {
			return nil
		}
		return &ast.ExprStmt{X: x}
	}
}

// expectSemi consumes a statement-terminating semicolon. nanojs does not
// implement automatic semicolon insertion except before '}' and EOF, which
// keeps real-world benchmark sources parseable while staying simple.
func (p *parser) expectSemi() {
	if p.accept(token.Semicolon) {
		return
	}
	if p.at(token.RBrace) || p.at(token.EOF) {
		return
	}
	p.errorf("expected ';', found %s", p.cur())
	p.sync()
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	fpos := p.expect(token.Function).Pos
	name := p.expect(token.Ident).Literal
	p.expect(token.LParen)
	var params []string
	seen := map[string]bool{}
	for !p.at(token.RParen) && !p.at(token.EOF) {
		id := p.expect(token.Ident)
		if seen[id.Literal] {
			p.errorf("duplicate parameter %q", id.Literal)
		}
		seen[id.Literal] = true
		params = append(params, id.Literal)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	body := p.parseBlock()
	return &ast.FuncDecl{FuncPos: fpos, Name: name, Params: params, Body: body}
}

func (p *parser) parseVarDecl() *ast.VarDecl {
	t := p.next() // var/let/const
	d := &ast.VarDecl{DeclPos: t.Pos, Kind: t.Kind}
	for {
		id := p.expect(token.Ident)
		d.Names = append(d.Names, id.Literal)
		var init ast.Expr
		if p.accept(token.Assign) {
			init = p.parseAssignExpr()
		} else if t.Kind == token.Const {
			p.errorf("const declaration of %q requires an initializer", id.Literal)
		}
		d.Inits = append(d.Inits, init)
		if !p.accept(token.Comma) {
			return d
		}
	}
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBrace).Pos
	blk := &ast.BlockStmt{Lbrace: lb}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
		if p.pos == before {
			p.errorf("unexpected token %s in block", p.cur())
			p.next()
		}
	}
	p.expect(token.RBrace)
	return blk
}

func (p *parser) parseIf() ast.Stmt {
	ipos := p.expect(token.If).Pos
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.Else) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{IfPos: ipos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseWhile() ast.Stmt {
	wpos := p.expect(token.While).Pos
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	body := p.parseStmt()
	return &ast.WhileStmt{WhilePos: wpos, Cond: cond, Body: body}
}

func (p *parser) parseDoWhile() ast.Stmt {
	dpos := p.expect(token.Do).Pos
	body := p.parseStmt()
	p.expect(token.While)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	p.expectSemi()
	return &ast.DoWhileStmt{DoPos: dpos, Body: body, Cond: cond}
}

func (p *parser) parseFor() ast.Stmt {
	fpos := p.expect(token.For).Pos
	p.expect(token.LParen)
	var init ast.Stmt
	switch p.cur().Kind {
	case token.Semicolon:
		p.next()
	case token.Var, token.Let, token.Const:
		init = p.parseVarDecl()
		p.expect(token.Semicolon)
	default:
		init = &ast.ExprStmt{X: p.parseExpr()}
		p.expect(token.Semicolon)
	}
	var cond ast.Expr
	if !p.at(token.Semicolon) {
		cond = p.parseExpr()
	}
	p.expect(token.Semicolon)
	var post ast.Expr
	if !p.at(token.RParen) {
		post = p.parseExpr()
	}
	p.expect(token.RParen)
	body := p.parseStmt()
	return &ast.ForStmt{ForPos: fpos, Init: init, Cond: cond, Post: post, Body: body}
}

// ---- Expressions ----

// parseExpr parses a comma-free expression (nanojs has no comma operator).
func (p *parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() ast.Expr {
	lhs := p.parseConditional()
	if !p.cur().Kind.IsAssign() {
		return lhs
	}
	op := p.next().Kind
	if !isAssignTarget(lhs) {
		p.errorf("invalid assignment target")
	}
	rhs := p.parseAssignExpr()
	return &ast.AssignExpr{Target: lhs, Op: op, Value: rhs}
}

func isAssignTarget(x ast.Expr) bool {
	switch t := x.(type) {
	case *ast.Ident:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.MemberExpr:
		return t.Name == "length"
	default:
		return false
	}
}

func (p *parser) parseConditional() ast.Expr {
	cond := p.parseLogicalOr()
	if !p.accept(token.Question) {
		return cond
	}
	then := p.parseAssignExpr()
	p.expect(token.Colon)
	els := p.parseAssignExpr()
	return &ast.CondExpr{Cond: cond, Then: then, Else: els}
}

func (p *parser) parseLogicalOr() ast.Expr {
	x := p.parseLogicalAnd()
	for p.at(token.PipePipe) {
		p.next()
		y := p.parseLogicalAnd()
		x = &ast.LogicalExpr{X: x, Op: token.PipePipe, Y: y}
	}
	return x
}

func (p *parser) parseLogicalAnd() ast.Expr {
	x := p.parseBinary(0)
	for p.at(token.AmpAmp) {
		p.next()
		y := p.parseBinary(0)
		x = &ast.LogicalExpr{X: x, Op: token.AmpAmp, Y: y}
	}
	return x
}

// binaryPrec returns the precedence of binary operators handled by
// precedence climbing; higher binds tighter. Returns -1 for non-binary ops.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.Pipe:
		return 1
	case token.Caret:
		return 2
	case token.Amp:
		return 3
	case token.Eq, token.NotEq, token.StrictEq, token.StrictNe:
		return 4
	case token.Lt, token.Gt, token.Le, token.Ge:
		return 5
	case token.Shl, token.Shr, token.Ushr:
		return 6
	case token.Plus, token.Minus:
		return 7
	case token.Star, token.Slash, token.Percent:
		return 8
	case token.StarStar:
		return 9
	default:
		return -1
	}
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := binaryPrec(p.cur().Kind)
		if prec < 0 || prec < minPrec {
			return x
		}
		op := p.next().Kind
		// ** is right-associative; everything else left-associative.
		nextMin := prec + 1
		if op == token.StarStar {
			nextMin = prec
		}
		y := p.parseBinary(nextMin)
		x = &ast.BinaryExpr{X: x, Op: op, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.Minus, token.Plus, token.Bang, token.Tilde, token.Typeof:
		t := p.next()
		x := p.parseUnary()
		if t.Kind == token.Plus {
			// Unary plus is ToNumber; in nanojs all numbers are already
			// numbers, so it is modeled as 0 + x at the AST level.
			return &ast.BinaryExpr{X: &ast.NumberLit{ValuePos: t.Pos, Value: 0, Raw: "0"}, Op: token.Plus, Y: x}
		}
		return &ast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}
	case token.PlusPlus, token.MinusMinus:
		t := p.next()
		x := p.parseUnary()
		if !isUpdateTarget(x) {
			p.errorf("invalid %s target", t.Kind)
		}
		return &ast.UpdateExpr{OpPos: t.Pos, Op: t.Kind, Prefix: true, Target: x}
	default:
		return p.parsePostfix()
	}
}

func isUpdateTarget(x ast.Expr) bool {
	switch x.(type) {
	case *ast.Ident, *ast.IndexExpr:
		return true
	default:
		return false
	}
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parseCallMember()
	for p.at(token.PlusPlus) || p.at(token.MinusMinus) {
		t := p.next()
		if !isUpdateTarget(x) {
			p.errorf("invalid %s target", t.Kind)
		}
		x = &ast.UpdateExpr{OpPos: t.Pos, Op: t.Kind, Prefix: false, Target: x}
	}
	return x
}

func (p *parser) parseCallMember() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.Dot:
			p.next()
			name := p.expect(token.Ident).Literal
			x = &ast.MemberExpr{X: x, Name: name}
		case token.LBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			x = &ast.IndexExpr{X: x, Index: idx}
		case token.LParen:
			p.next()
			var args []ast.Expr
			for !p.at(token.RParen) && !p.at(token.EOF) {
				args = append(args, p.parseAssignExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.RParen)
			x = &ast.CallExpr{Callee: x, Args: args}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.Number:
		p.next()
		v, err := parseNumber(t.Literal)
		if err != nil {
			p.errorf("bad number literal %q: %v", t.Literal, err)
		}
		return &ast.NumberLit{ValuePos: t.Pos, Value: v, Raw: t.Literal}
	case token.String:
		p.next()
		return &ast.StringLit{ValuePos: t.Pos, Value: t.Literal}
	case token.True:
		p.next()
		return &ast.BoolLit{ValuePos: t.Pos, Value: true}
	case token.False:
		p.next()
		return &ast.BoolLit{ValuePos: t.Pos, Value: false}
	case token.Null:
		p.next()
		return &ast.NullLit{ValuePos: t.Pos}
	case token.Undefined:
		p.next()
		return &ast.UndefinedLit{ValuePos: t.Pos}
	case token.Ident:
		p.next()
		return &ast.Ident{NamePos: t.Pos, Name: t.Literal}
	case token.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	case token.LBracket:
		p.next()
		arr := &ast.ArrayLit{Lbrack: t.Pos}
		for !p.at(token.RBracket) && !p.at(token.EOF) {
			arr.Elems = append(arr.Elems, p.parseAssignExpr())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBracket)
		return arr
	case token.New:
		p.next()
		id := p.expect(token.Ident)
		if id.Literal != "Array" {
			p.errorf("nanojs only supports `new Array(n)`, got `new %s`", id.Literal)
		}
		p.expect(token.LParen)
		var n ast.Expr
		if !p.at(token.RParen) {
			n = p.parseExpr()
		} else {
			n = &ast.NumberLit{ValuePos: id.Pos, Value: 0, Raw: "0"}
		}
		p.expect(token.RParen)
		return &ast.NewArray{NewPos: t.Pos, Len: n}
	default:
		p.errorf("unexpected token %s in expression", t)
		p.next()
		return &ast.UndefinedLit{ValuePos: t.Pos}
	}
}

func parseNumber(lit string) (float64, error) {
	if strings.HasPrefix(lit, "0x") || strings.HasPrefix(lit, "0X") {
		u, err := strconv.ParseUint(lit[2:], 16, 64)
		if err != nil {
			return 0, err
		}
		return float64(u), nil
	}
	return strconv.ParseFloat(lit, 64)
}
