package lexer

import (
	"strings"
	"testing"

	"repro/internal/js/token"
)

// referenceOperators is the operator table the lexer scanned linearly
// (longest first) before dispatching on the first byte; it stays here
// as the reference the switch must agree with.
var referenceOperators = []struct {
	text string
	kind token.Kind
}{
	{">>>=", token.USHR_ASSIGN},
	{"...", token.ELLIPSIS}, {"===", token.STRICTEQ},
	{"!==", token.STRICTNEQ}, {">>>", token.USHR},
	{"<<=", token.SHL_ASSIGN}, {">>=", token.SHR_ASSIGN},
	{"**=", token.POW_ASSIGN}, {"&&=", token.LOGAND_ASSIGN},
	{"||=", token.LOGOR_ASSIGN}, {"??=", token.NULLISH_ASSIGN},
	{"=>", token.ARROW}, {"==", token.EQ}, {"!=", token.NEQ},
	{"<=", token.LEQ}, {">=", token.GEQ}, {"&&", token.LOGAND},
	{"||", token.LOGOR}, {"??", token.NULLISH}, {"?.", token.OPTCHAIN},
	{"++", token.INC}, {"--", token.DEC}, {"+=", token.PLUS_ASSIGN},
	{"-=", token.MINUS_ASSIGN}, {"*=", token.STAR_ASSIGN},
	{"/=", token.SLASH_ASSIGN}, {"%=", token.PERCENT_ASSIGN},
	{"&=", token.AND_ASSIGN}, {"|=", token.OR_ASSIGN},
	{"^=", token.XOR_ASSIGN}, {"**", token.POW}, {"<<", token.SHL},
	{">>", token.SHR},
	{"(", token.LPAREN}, {")", token.RPAREN}, {"{", token.LBRACE},
	{"}", token.RBRACE}, {"[", token.LBRACKET}, {"]", token.RBRACKET},
	{";", token.SEMI}, {",", token.COMMA}, {".", token.DOT},
	{":", token.COLON}, {"?", token.QUESTION}, {"=", token.ASSIGN},
	{"+", token.PLUS}, {"-", token.MINUS}, {"*", token.STAR},
	{"/", token.SLASH}, {"%", token.PERCENT}, {"<", token.LT},
	{">", token.GT}, {"!", token.NOT}, {"&", token.AND},
	{"|", token.OR}, {"^", token.XOR}, {"~", token.TILD},
}

// referenceOperator is the table's longest match, except that `?.`
// before a decimal digit is `?` (ECMAScript's lookahead restriction,
// which the table lacked).
func referenceOperator(src string) (token.Kind, int) {
	for _, o := range referenceOperators {
		if !strings.HasPrefix(src, o.text) {
			continue
		}
		if o.kind == token.OPTCHAIN && len(src) > 2 && isDigit(src[2]) {
			continue
		}
		return o.kind, len(o.text)
	}
	return token.ILLEGAL, 0
}

// TestOperatorDispatchMatchesTable checks the first-byte dispatch
// against the reference table on every string of one to four bytes
// over the operator alphabet, followed by a letter, a digit or EOF.
func TestOperatorDispatchMatchesTable(t *testing.T) {
	const alphabet = "()[]{};,.:?=+-*/%<>!&|^~"
	var buf []byte
	checked := 0
	var rec func(depth int)
	rec = func(depth int) {
		if depth > 0 {
			for _, tail := range []string{"a", "5", ""} {
				src := string(buf) + tail
				wantKind, wantLen := referenceOperator(src)
				gotKind, gotText := New(src).operator(src[0])
				if gotKind != wantKind || len(gotText) != wantLen {
					t.Fatalf("operator(%q) = %v %q, reference %v len %d", src, gotKind, gotText, wantKind, wantLen)
				}
				if gotKind != token.ILLEGAL && src[:len(gotText)] != gotText {
					t.Fatalf("operator(%q) text %q is not the source prefix", src, gotText)
				}
				checked++
			}
		}
		if depth == 4 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			rec(depth + 1)
			buf = buf[:len(buf)-1]
		}
	}
	rec(0)
	if checked < 3*24*24*24*24 {
		t.Fatalf("only %d strings checked", checked)
	}
}

// TestOperatorTokens drives the dispatch through Next: every operator
// token carries its own text and the lexer resumes right after it.
func TestOperatorTokens(t *testing.T) {
	for _, o := range referenceOperators {
		if o.text == "/" || o.text == "/=" {
			continue // regex context at the start of input
		}
		toks, err := ScanAll(o.text + " x")
		if err != nil {
			t.Fatalf("%q: %v", o.text, err)
		}
		if toks[0].Kind != o.kind || toks[0].Lit != o.text || toks[0].Raw != o.text {
			t.Errorf("%q lexed as %v %q", o.text, toks[0].Kind, toks[0].Lit)
		}
		if toks[1].Kind != token.IDENT || toks[1].Pos.Column != len(o.text)+2 {
			t.Errorf("%q: next token %v at column %d", o.text, toks[1].Kind, toks[1].Pos.Column)
		}
	}
}
