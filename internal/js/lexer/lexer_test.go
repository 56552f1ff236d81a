package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/js/token"
)

// ScanAll tokenizes the whole input into a fresh slice.
func ScanAll(src string) ([]token.Token, error) { return AppendAll(nil, src) }

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := ScanAll(src)
	if err != nil {
		t.Fatalf("ScanAll(%q): %v", src, err)
	}
	var ks []token.Kind
	for _, tk := range toks {
		ks = append(ks, tk.Kind)
	}
	return ks
}

func lits(t *testing.T, src string) []string {
	t.Helper()
	toks, err := ScanAll(src)
	if err != nil {
		t.Fatalf("ScanAll(%q): %v", src, err)
	}
	var ls []string
	for _, tk := range toks {
		if tk.Kind == token.EOF {
			break
		}
		ls = append(ls, tk.Lit)
	}
	return ls
}

func eqKinds(a []token.Kind, b ...token.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIdentifiersAndKeywords(t *testing.T) {
	ks := kinds(t, "var x = foo")
	if !eqKinds(ks, token.KEYWORD, token.IDENT, token.ASSIGN, token.IDENT, token.EOF) {
		t.Fatalf("got %v", ks)
	}
}

func TestDollarUnderscoreIdent(t *testing.T) {
	ls := lits(t, "$ _ $foo _bar a$b")
	want := []string{"$", "_", "$foo", "_bar", "a$b"}
	for i, w := range want {
		if ls[i] != w {
			t.Errorf("lit[%d] = %q, want %q", i, ls[i], w)
		}
	}
}

func TestNumberForms(t *testing.T) {
	cases := map[string]string{
		"0":       "0",
		"123":     "123",
		"1.5":     "1.5",
		".5":      ".5",
		"1e3":     "1e3",
		"1.5e-3":  "1.5e-3",
		"0x1F":    "0x1F",
		"0b1010":  "0b1010",
		"0o777":   "0o777",
		"1_000":   "1000",
		"123n":    "123n",
		"1.5E+10": "1.5E+10",
	}
	for src, want := range cases {
		toks, err := ScanAll(src)
		if err != nil {
			t.Errorf("ScanAll(%q): %v", src, err)
			continue
		}
		if toks[0].Kind != token.NUMBER {
			t.Errorf("%q: kind = %v, want NUMBER", src, toks[0].Kind)
		}
		if toks[0].Lit != want {
			t.Errorf("%q: lit = %q, want %q", src, toks[0].Lit, want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	cases := map[string]string{
		`"abc"`:        "abc",
		`'abc'`:        "abc",
		`"a\nb"`:       "a\nb",
		`"a\tb"`:       "a\tb",
		`"a\\b"`:       `a\b`,
		`"a\"b"`:       `a"b`,
		`'a\'b'`:       "a'b",
		`"\x41"`:       "A",
		`"A"`:          "A",
		`"\u{1F600}"`:  "\U0001F600",
		`"quote\""`:    `quote"`,
		`"\0"`:         "\x00",
		`"mixed\r\n!"`: "mixed\r\n!",
	}
	for src, want := range cases {
		toks, err := ScanAll(src)
		if err != nil {
			t.Errorf("ScanAll(%q): %v", src, err)
			continue
		}
		if toks[0].Lit != want {
			t.Errorf("%q: lit = %q, want %q", src, toks[0].Lit, want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := ScanAll(`"abc`); err == nil {
		t.Fatal("expected error for unterminated string")
	}
	if _, err := ScanAll("\"ab\nc\""); err == nil {
		t.Fatal("expected error for newline in string")
	}
}

func TestTemplateLiteral(t *testing.T) {
	toks, err := ScanAll("`a ${b} c`")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.TEMPLATE {
		t.Fatalf("kind = %v", toks[0].Kind)
	}
	if toks[0].Lit != "a ${b} c" {
		t.Fatalf("lit = %q", toks[0].Lit)
	}
}

func TestNestedTemplate(t *testing.T) {
	src := "`outer ${ `inner ${x}` } end`"
	toks, err := ScanAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.TEMPLATE {
		t.Fatalf("kind = %v", toks[0].Kind)
	}
	if toks[1].Kind != token.EOF {
		t.Fatalf("expected single template token, next = %v", toks[1])
	}
}

func TestTemplateWithBraces(t *testing.T) {
	src := "`${ {a: 1} } done`"
	toks, err := ScanAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.TEMPLATE || toks[1].Kind != token.EOF {
		t.Fatalf("got %v", toks)
	}
}

func TestRegexVsDivision(t *testing.T) {
	// After an identifier, '/' is division.
	ks := kinds(t, "a / b")
	if !eqKinds(ks, token.IDENT, token.SLASH, token.IDENT, token.EOF) {
		t.Fatalf("division: got %v", ks)
	}
	// After '=', '/' begins a regex.
	toks, err := ScanAll(`x = /ab+c/gi`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != token.REGEX {
		t.Fatalf("regex: got %v", toks[2])
	}
	if toks[2].Lit != "/ab+c/gi" {
		t.Fatalf("regex lit = %q", toks[2].Lit)
	}
	// Regex with a slash inside a character class.
	toks, err = ScanAll(`x = /[/]/`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != token.REGEX {
		t.Fatalf("class regex: got %v", toks[2])
	}
	// After return keyword, regex.
	toks, err = ScanAll(`return /x/`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != token.REGEX {
		t.Fatalf("return regex: got %v", toks[1])
	}
	// After ')', division.
	ks = kinds(t, "(a) / b")
	if ks[3] != token.SLASH {
		t.Fatalf("paren division: got %v", ks)
	}
}

func TestComments(t *testing.T) {
	ks := kinds(t, "a // comment\nb /* block */ c")
	if !eqKinds(ks, token.IDENT, token.IDENT, token.IDENT, token.EOF) {
		t.Fatalf("got %v", ks)
	}
	if _, err := ScanAll("/* unterminated"); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestNewlineBefore(t *testing.T) {
	toks, err := ScanAll("a\nb c")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].NewlineBefore {
		t.Error("first token should not have NewlineBefore")
	}
	if !toks[1].NewlineBefore {
		t.Error("token after newline should have NewlineBefore")
	}
	if toks[2].NewlineBefore {
		t.Error("same-line token should not have NewlineBefore")
	}
	// Newline inside a block comment counts.
	toks, err = ScanAll("a /* \n */ b")
	if err != nil {
		t.Fatal(err)
	}
	if !toks[1].NewlineBefore {
		t.Error("newline inside block comment should set NewlineBefore")
	}
}

func TestOperatorMaximalMunch(t *testing.T) {
	cases := map[string]token.Kind{
		">>>=": token.USHR_ASSIGN, ">>>": token.USHR, ">>": token.SHR,
		"===": token.STRICTEQ, "==": token.EQ, "=": token.ASSIGN,
		"!==": token.STRICTNEQ, "!=": token.NEQ, "!": token.NOT,
		"**": token.POW, "*": token.STAR, "=>": token.ARROW,
		"...": token.ELLIPSIS, "?.": token.OPTCHAIN, "??": token.NULLISH,
		"&&=": token.LOGAND_ASSIGN, "||=": token.LOGOR_ASSIGN,
	}
	for src, want := range cases {
		toks, err := ScanAll(src)
		if err != nil {
			t.Errorf("ScanAll(%q): %v", src, err)
			continue
		}
		if toks[0].Kind != want {
			t.Errorf("%q: kind = %v, want %v", src, toks[0].Kind, want)
		}
	}
}

func TestQuestionDotVsTernary(t *testing.T) {
	ks := kinds(t, "a ? b : c")
	if !eqKinds(ks, token.IDENT, token.QUESTION, token.IDENT, token.COLON, token.IDENT, token.EOF) {
		t.Fatalf("got %v", ks)
	}
	// `?.` is only an optional chain when no decimal digit follows
	// (ECMAScript's OptionalChainingPunctuator lookahead), so minified
	// `c?.5:1` is a conditional on the number `.5`.
	ks = kinds(t, "c?.5:1")
	if !eqKinds(ks, token.IDENT, token.QUESTION, token.NUMBER, token.COLON, token.NUMBER, token.EOF) {
		t.Fatalf("c?.5:1: got %v", ks)
	}
	ks = kinds(t, "c?.d")
	if !eqKinds(ks, token.IDENT, token.OPTCHAIN, token.IDENT, token.EOF) {
		t.Fatalf("c?.d: got %v", ks)
	}
}

func TestPositions(t *testing.T) {
	toks, err := ScanAll("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Column != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Column != 3 {
		t.Errorf("bb at %v", toks[1].Pos)
	}
}

func TestIllegalCharacter(t *testing.T) {
	if _, err := ScanAll("a # b"); err == nil {
		t.Fatal("expected error for '#'")
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("x")
	l.Next()
	for i := 0; i < 3; i++ {
		if tk := l.Next(); tk.Kind != token.EOF {
			t.Fatalf("Next after end = %v, want EOF", tk)
		}
	}
}

func TestUnicodeIdentifier(t *testing.T) {
	ls := lits(t, "café π")
	if ls[0] != "café" || ls[1] != "π" {
		t.Fatalf("got %v", ls)
	}
}

// TestScanNeverPanics feeds random strings to the scanner; it must
// terminate with either tokens or an error, never panic or loop.
func TestScanNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = ScanAll(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestScanAllTokensCoverInput checks that for well-formed operator soup the
// concatenated raw text matches the input with whitespace removed.
func TestScanAllTokensCoverInput(t *testing.T) {
	src := "a+b*c===d&&e||f??g"
	toks, err := ScanAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tk := range toks {
		sb.WriteString(tk.Raw)
	}
	if sb.String() != src {
		t.Fatalf("raw concat = %q, want %q", sb.String(), src)
	}
}
