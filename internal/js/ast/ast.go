// Package ast defines an ESTree-flavoured abstract syntax tree for the
// JavaScript subset produced by the parser, plus a generic walker.
package ast

import "repro/internal/js/token"

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
	node()
}

type Base struct{ P token.Pos }

func (b Base) Pos() token.Pos { return b.P }
func (Base) node()            {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// Ident is an identifier reference.
type Ident struct {
	Base
	Name string
}

// Literal is a primitive literal. Kind distinguishes the flavours.
type Literal struct {
	Base
	Kind  LiteralKind
	Value string // decoded string value / numeric text / "true" etc.
}

// LiteralKind enumerates primitive literal flavours.
type LiteralKind int

// Literal kinds.
const (
	LitNumber LiteralKind = iota
	LitString
	LitBool
	LitNull
	LitUndefined
	LitRegex
)

// TemplateLiteral is `a ${b} c`: alternating quasis (len = len(Exprs)+1).
type TemplateLiteral struct {
	Base
	Quasis []string
	Exprs  []Expr
}

// ObjectLit is an object literal { a: 1, [k]: v, m() {} }.
type ObjectLit struct {
	Base
	Props []Property
}

// Property is one member of an object literal.
type Property struct {
	Key      Expr // Ident, Literal, or computed Expr
	Value    Expr
	Computed bool
	Spread   bool // {...x}
}

// ArrayLit is an array literal [1, 2, x].
type ArrayLit struct {
	Base
	Elems []Expr // nil entries for elisions
}

// FunctionLit is a function expression or arrow function.
type FunctionLit struct {
	Base
	Name   string // "" when anonymous
	Params []Param
	Body   *BlockStmt
	Arrow  bool
	// ExprBody holds the body of `x => expr` arrows; Body is nil then.
	ExprBody Expr
}

// Param is a function parameter (identifier, possibly rest or defaulted).
type Param struct {
	Name    string
	Rest    bool
	Default Expr // nil when no default
}

// BinaryExpr is a binary operation (arithmetic, comparison, in, instanceof).
type BinaryExpr struct {
	Base
	Op   string
	L, R Expr
}

// LogicalExpr is &&, || or ??.
type LogicalExpr struct {
	Base
	Op   string
	L, R Expr
}

// UnaryExpr is a prefix unary operation (!, -, +, ~, typeof, void, delete).
type UnaryExpr struct {
	Base
	Op string
	X  Expr
}

// UpdateExpr is ++/-- in prefix or postfix position.
type UpdateExpr struct {
	Base
	Op     string // "++" or "--"
	X      Expr
	Prefix bool
}

// AssignExpr is an assignment, possibly compound (Op holds "+" for +=).
type AssignExpr struct {
	Base
	Op     string // "" for plain =
	Target Expr   // Ident or MemberExpr
	Value  Expr
}

// CondExpr is the ternary c ? t : f.
type CondExpr struct {
	Base
	Cond, Then, Else Expr
}

// CallExpr is a function or method call.
type CallExpr struct {
	Base
	Callee   Expr
	Args     []Expr
	Optional bool // a?.(b)
}

// NewExpr is `new Callee(args)`.
type NewExpr struct {
	Base
	Callee Expr
	Args   []Expr
}

// MemberExpr is property access a.b or a[b].
type MemberExpr struct {
	Base
	Obj      Expr
	Prop     Expr // Ident when !Computed, arbitrary Expr when Computed
	Computed bool
	Optional bool // a?.b
}

// SeqExpr is the comma operator (a, b, c).
type SeqExpr struct {
	Base
	Exprs []Expr
}

// ThisExpr is the `this` keyword.
type ThisExpr struct{ Base }

// SpreadExpr is `...x` in call arguments or array literals.
type SpreadExpr struct {
	Base
	X Expr
}

func (*Ident) expr()           {}
func (*Literal) expr()         {}
func (*TemplateLiteral) expr() {}
func (*ObjectLit) expr()       {}
func (*ArrayLit) expr()        {}
func (*FunctionLit) expr()     {}
func (*BinaryExpr) expr()      {}
func (*LogicalExpr) expr()     {}
func (*UnaryExpr) expr()       {}
func (*UpdateExpr) expr()      {}
func (*AssignExpr) expr()      {}
func (*CondExpr) expr()        {}
func (*CallExpr) expr()        {}
func (*NewExpr) expr()         {}
func (*MemberExpr) expr()      {}
func (*SeqExpr) expr()         {}
func (*ThisExpr) expr()        {}
func (*SpreadExpr) expr()      {}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// Program is a whole source file.
type Program struct {
	Base
	Body []Stmt
}

// VarDecl is var/let/const with one or more declarators.
type VarDecl struct {
	Base
	Kind  string // "var", "let", "const"
	Decls []Declarator
}

// Declarator is one name (or pattern) with optional initializer.
type Declarator struct {
	Name string // simple identifier binding; "" when Pattern is set
	Init Expr
	// Pattern is a destructuring pattern ({a, b} = ..., [x, y] = ...).
	Pattern Expr // ObjectLit/ArrayLit reused as patterns
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	Base
	X Expr
}

// BlockStmt is { ... }.
type BlockStmt struct {
	Base
	Body []Stmt
}

// IfStmt is if/else.
type IfStmt struct {
	Base
	Cond Expr
	Then Stmt
	Else Stmt // nil when absent
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Base
	Cond Expr
	Body Stmt
}

// DoWhileStmt is do/while.
type DoWhileStmt struct {
	Base
	Body Stmt
	Cond Expr
}

// ForStmt is the classic three-clause for.
type ForStmt struct {
	Base
	Init Stmt // VarDecl or ExprStmt or nil
	Cond Expr // nil when absent
	Post Expr // nil when absent
	Body Stmt
}

// ForInStmt covers both for-in and for-of (Of distinguishes).
type ForInStmt struct {
	Base
	DeclKind string // "", "var", "let", "const"
	Left     Expr   // Ident or pattern
	Right    Expr
	Body     Stmt
	Of       bool
}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	Base
	X Expr // nil for bare return
}

// BreakStmt breaks a loop or switch.
type BreakStmt struct {
	Base
	Label string
}

// ContinueStmt continues a loop.
type ContinueStmt struct {
	Base
	Label string
}

// FuncDecl is a function declaration statement.
type FuncDecl struct {
	Base
	Fn *FunctionLit
}

// ThrowStmt throws an exception.
type ThrowStmt struct {
	Base
	X Expr
}

// TryStmt is try/catch/finally.
type TryStmt struct {
	Base
	Block       *BlockStmt
	CatchParam  string // "" for catch-less or param-less catch
	CatchBlock  *BlockStmt
	FinallyBody *BlockStmt
}

// SwitchStmt is a switch with cases.
type SwitchStmt struct {
	Base
	Disc  Expr
	Cases []SwitchCase
}

// SwitchCase is one case (Test == nil for default).
type SwitchCase struct {
	Test Expr
	Body []Stmt
}

// LabeledStmt is label: stmt.
type LabeledStmt struct {
	Base
	Label string
	Body  Stmt
}

// ClassDecl is a class declaration (methods become function literals).
type ClassDecl struct {
	Base
	Name    string
	Super   Expr // nil when no extends
	Methods []ClassMethod
}

// ClassMethod is one method of a class.
type ClassMethod struct {
	Name   string
	Fn     *FunctionLit
	Static bool
	Kind   string // "method", "get", "set", "constructor"
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ Base }

func (*Program) stmt()      {}
func (*VarDecl) stmt()      {}
func (*ExprStmt) stmt()     {}
func (*BlockStmt) stmt()    {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*ForInStmt) stmt()    {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*FuncDecl) stmt()     {}
func (*ThrowStmt) stmt()    {}
func (*TryStmt) stmt()      {}
func (*SwitchStmt) stmt()   {}
func (*LabeledStmt) stmt()  {}
func (*ClassDecl) stmt()    {}
func (*EmptyStmt) stmt()    {}
