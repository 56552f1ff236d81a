// Package lexer implements a hand-written scanner for the JavaScript
// subset accepted by the parser. It handles ECMAScript string escapes,
// numeric literal forms, template literals, regular-expression literals
// (with the usual slash-disambiguation heuristic), and records the
// newline information needed for automatic semicolon insertion.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/js/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans a source buffer into tokens. Create one with New and call
// Next repeatedly; after the first error Next keeps returning ILLEGAL.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	err  *Error
	// prev is the previously emitted token kind, used to decide whether
	// a '/' starts a regex literal or is the division operator.
	prev     token.Kind
	prevLit  string
	nlBefore bool
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexical error encountered, if any.
func (l *Lexer) Err() error {
	if l.err == nil {
		return nil
	}
	return l.err
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Line: l.line, Column: l.col, Offset: l.off}
}

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	if l.err == nil {
		l.err = &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
	}
}

func (l *Lexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isLineTerminator(c byte) bool { return c == '\n' || c == '\r' }

func isIdentStart(c byte) bool {
	return c == '$' || c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= utf8.RuneSelf
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// skipSpace consumes whitespace and comments, recording whether a line
// terminator was crossed.
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\v' || c == '\f':
			l.advance()
		case isLineTerminator(c):
			l.nlBefore = true
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && !isLineTerminator(l.peek()) {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if isLineTerminator(l.peek()) {
					l.nlBefore = true
				}
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
				return
			}
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if unicode.IsSpace(r) {
				for i := 0; i < size; i++ {
					l.advance()
				}
				continue
			}
			return
		default:
			return
		}
	}
}

// Next returns the next token. At end of input it returns EOF forever.
func (l *Lexer) Next() token.Token {
	l.nlBefore = false
	l.skipSpace()
	start := l.pos()
	tok := token.Token{Pos: start, NewlineBefore: l.nlBefore}
	if l.err != nil {
		tok.Kind = token.ILLEGAL
		return tok
	}
	if l.off >= len(l.src) {
		tok.Kind = token.EOF
		l.remember(tok)
		return tok
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		tok = l.scanIdent(tok)
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		tok = l.scanNumber(tok)
	case c == '"' || c == '\'':
		tok = l.scanString(tok)
	case c == '`':
		tok = l.scanTemplate(tok)
	default:
		tok = l.scanOperator(tok)
	}
	l.remember(tok)
	return tok
}

func (l *Lexer) remember(t token.Token) {
	l.prev = t.Kind
	l.prevLit = t.Lit
}

func (l *Lexer) scanIdent(tok token.Token) token.Token {
	startOff := l.off
	for l.off < len(l.src) && isIdentPart(l.peek()) {
		l.advance()
	}
	name := l.src[startOff:l.off]
	tok.Lit = name
	tok.Raw = name
	if token.IsKeyword(name) {
		tok.Kind = token.KEYWORD
	} else {
		tok.Kind = token.IDENT
	}
	return tok
}

func (l *Lexer) scanNumber(tok token.Token) token.Token {
	startOff := l.off
	tok.Kind = token.NUMBER
	c := l.peek()
	if c == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			l.errorf(tok.Pos, "malformed hex literal")
		}
		for isHexDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
	} else if c == '0' && (l.peekAt(1) == 'o' || l.peekAt(1) == 'O') {
		l.advance()
		l.advance()
		for l.peek() >= '0' && l.peek() <= '7' {
			l.advance()
		}
	} else if c == '0' && (l.peekAt(1) == 'b' || l.peekAt(1) == 'B') {
		l.advance()
		l.advance()
		for l.peek() == '0' || l.peek() == '1' {
			l.advance()
		}
	} else {
		for isDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
		if l.peek() == '.' {
			l.advance()
			for isDigit(l.peek()) || l.peek() == '_' {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if !isDigit(l.peek()) {
				l.errorf(tok.Pos, "malformed exponent")
			}
			for isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	if isIdentStart(l.peek()) && l.peek() != 'n' { // BigInt suffix tolerated
		l.errorf(tok.Pos, "identifier starts immediately after numeric literal")
	}
	if l.peek() == 'n' {
		l.advance()
	}
	tok.Lit = strings.ReplaceAll(l.src[startOff:l.off], "_", "")
	tok.Raw = l.src[startOff:l.off]
	return tok
}

func (l *Lexer) scanString(tok token.Token) token.Token {
	quote := l.advance()
	startOff := l.off - 1
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			l.errorf(tok.Pos, "unterminated string literal")
			tok.Kind = token.ILLEGAL
			return tok
		}
		c := l.peek()
		if isLineTerminator(c) {
			l.errorf(tok.Pos, "unterminated string literal")
			tok.Kind = token.ILLEGAL
			return tok
		}
		l.advance()
		if c == quote {
			break
		}
		if c == '\\' {
			l.scanEscape(&sb, tok.Pos)
			continue
		}
		sb.WriteByte(c)
	}
	tok.Kind = token.STRING
	tok.Lit = sb.String()
	tok.Raw = l.src[startOff:l.off]
	return tok
}

// scanEscape decodes one escape sequence after a backslash into sb.
func (l *Lexer) scanEscape(sb *strings.Builder, start token.Pos) {
	if l.off >= len(l.src) {
		l.errorf(start, "unterminated escape sequence")
		return
	}
	c := l.advance()
	switch c {
	case 'n':
		sb.WriteByte('\n')
	case 't':
		sb.WriteByte('\t')
	case 'r':
		sb.WriteByte('\r')
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'v':
		sb.WriteByte('\v')
	case '0':
		if !isDigit(l.peek()) {
			sb.WriteByte(0)
		}
	case 'x':
		v := 0
		for i := 0; i < 2; i++ {
			if !isHexDigit(l.peek()) {
				l.errorf(start, "malformed \\x escape")
				return
			}
			v = v*16 + hexVal(l.advance())
		}
		sb.WriteRune(rune(v))
	case 'u':
		if l.peek() == '{' {
			l.advance()
			v := 0
			for isHexDigit(l.peek()) {
				v = v*16 + hexVal(l.advance())
			}
			if l.peek() != '}' {
				l.errorf(start, "malformed \\u{...} escape")
				return
			}
			l.advance()
			sb.WriteRune(rune(v))
		} else {
			v := 0
			for i := 0; i < 4; i++ {
				if !isHexDigit(l.peek()) {
					l.errorf(start, "malformed \\u escape")
					return
				}
				v = v*16 + hexVal(l.advance())
			}
			sb.WriteRune(rune(v))
		}
	case '\n', '\r':
		// Line continuation: contributes nothing.
	default:
		sb.WriteByte(c)
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// scanTemplate scans a whole template literal including embedded
// ${...} substitutions (with nested-brace and nested-template tracking).
// The parser splits Raw back into quasis and expressions.
func (l *Lexer) scanTemplate(tok token.Token) token.Token {
	startOff := l.off
	l.advance() // consume `
	depth := 0  // ${ } nesting
	for {
		if l.off >= len(l.src) {
			l.errorf(tok.Pos, "unterminated template literal")
			tok.Kind = token.ILLEGAL
			return tok
		}
		c := l.advance()
		switch {
		case c == '\\':
			if l.off < len(l.src) {
				l.advance()
			}
		case c == '`' && depth == 0:
			tok.Kind = token.TEMPLATE
			tok.Raw = l.src[startOff:l.off]
			tok.Lit = tok.Raw[1 : len(tok.Raw)-1]
			return tok
		case c == '$' && l.peek() == '{':
			l.advance()
			depth++
		case c == '}' && depth > 0:
			depth--
		case c == '{' && depth > 0:
			depth++
		}
	}
}

// regexAllowed reports whether a '/' in the current context begins a
// regular expression literal rather than division.
func (l *Lexer) regexAllowed() bool {
	switch l.prev {
	case token.IDENT, token.NUMBER, token.STRING, token.TEMPLATE,
		token.REGEX, token.RPAREN, token.RBRACKET:
		return false
	case token.KEYWORD:
		// After `this`, `true`, etc. a slash is division; after
		// `return`, `typeof`, ... it begins a regex.
		switch l.prevLit {
		case "this", "true", "false", "null", "undefined", "super":
			return false
		}
		return true
	case token.RBRACE:
		// Ambiguous; treat as regex-allowed (block ends are far more
		// common than object-literal ends in statement position).
		return true
	default:
		return true
	}
}

func (l *Lexer) scanRegex(tok token.Token) token.Token {
	startOff := l.off
	l.advance() // consume '/'
	inClass := false
	for {
		if l.off >= len(l.src) || isLineTerminator(l.peek()) {
			l.errorf(tok.Pos, "unterminated regular expression")
			tok.Kind = token.ILLEGAL
			return tok
		}
		c := l.advance()
		switch {
		case c == '\\':
			if l.off < len(l.src) && !isLineTerminator(l.peek()) {
				l.advance()
			}
		case c == '[':
			inClass = true
		case c == ']':
			inClass = false
		case c == '/' && !inClass:
			for isIdentPart(l.peek()) {
				l.advance()
			}
			tok.Kind = token.REGEX
			tok.Raw = l.src[startOff:l.off]
			tok.Lit = tok.Raw
			return tok
		}
	}
}

// scanOperator handles punctuation and operators, longest match first.
func (l *Lexer) scanOperator(tok token.Token) token.Token {
	c := l.peek()
	if c == '/' && l.regexAllowed() {
		return l.scanRegex(tok)
	}
	kind, text := l.operator(c)
	if kind == token.ILLEGAL {
		p := l.pos()
		r, size := utf8.DecodeRuneInString(l.src[l.off:])
		for i := 0; i < size; i++ {
			l.advance()
		}
		l.errorf(p, "unexpected character %q", r)
		tok.Kind = token.ILLEGAL
		tok.Lit = string(r)
		return tok
	}
	// Operators never contain a line terminator.
	l.off += len(text)
	l.col += len(text)
	tok.Kind = kind
	tok.Lit = text
	tok.Raw = text
	return tok
}

// operator returns the longest operator at the current offset, whose
// first byte is c, or ILLEGAL. It dispatches on c and then tries only
// that byte's few candidates, longest first.
func (l *Lexer) operator(c byte) (token.Kind, string) {
	c1, c2 := l.peekAt(1), l.peekAt(2)
	switch c {
	case '(':
		return token.LPAREN, "("
	case ')':
		return token.RPAREN, ")"
	case '{':
		return token.LBRACE, "{"
	case '}':
		return token.RBRACE, "}"
	case '[':
		return token.LBRACKET, "["
	case ']':
		return token.RBRACKET, "]"
	case ';':
		return token.SEMI, ";"
	case ',':
		return token.COMMA, ","
	case ':':
		return token.COLON, ":"
	case '~':
		return token.TILD, "~"
	case '.':
		if c1 == '.' && c2 == '.' {
			return token.ELLIPSIS, "..."
		}
		return token.DOT, "."
	case '?':
		switch {
		case c1 == '?' && c2 == '=':
			return token.NULLISH_ASSIGN, "??="
		case c1 == '?':
			return token.NULLISH, "??"
		case c1 == '.' && !isDigit(c2):
			// OptionalChainingPunctuator is `?.` [lookahead ∉
			// DecimalDigit]: `c?.5:1` is a conditional on `.5`.
			return token.OPTCHAIN, "?."
		}
		return token.QUESTION, "?"
	case '=':
		switch {
		case c1 == '=' && c2 == '=':
			return token.STRICTEQ, "==="
		case c1 == '>':
			return token.ARROW, "=>"
		case c1 == '=':
			return token.EQ, "=="
		}
		return token.ASSIGN, "="
	case '!':
		switch {
		case c1 == '=' && c2 == '=':
			return token.STRICTNEQ, "!=="
		case c1 == '=':
			return token.NEQ, "!="
		}
		return token.NOT, "!"
	case '<':
		switch {
		case c1 == '<' && c2 == '=':
			return token.SHL_ASSIGN, "<<="
		case c1 == '=':
			return token.LEQ, "<="
		case c1 == '<':
			return token.SHL, "<<"
		}
		return token.LT, "<"
	case '>':
		switch {
		case c1 == '>' && c2 == '>' && l.peekAt(3) == '=':
			return token.USHR_ASSIGN, ">>>="
		case c1 == '>' && c2 == '>':
			return token.USHR, ">>>"
		case c1 == '>' && c2 == '=':
			return token.SHR_ASSIGN, ">>="
		case c1 == '=':
			return token.GEQ, ">="
		case c1 == '>':
			return token.SHR, ">>"
		}
		return token.GT, ">"
	case '*':
		switch {
		case c1 == '*' && c2 == '=':
			return token.POW_ASSIGN, "**="
		case c1 == '=':
			return token.STAR_ASSIGN, "*="
		case c1 == '*':
			return token.POW, "**"
		}
		return token.STAR, "*"
	case '&':
		switch {
		case c1 == '&' && c2 == '=':
			return token.LOGAND_ASSIGN, "&&="
		case c1 == '&':
			return token.LOGAND, "&&"
		case c1 == '=':
			return token.AND_ASSIGN, "&="
		}
		return token.AND, "&"
	case '|':
		switch {
		case c1 == '|' && c2 == '=':
			return token.LOGOR_ASSIGN, "||="
		case c1 == '|':
			return token.LOGOR, "||"
		case c1 == '=':
			return token.OR_ASSIGN, "|="
		}
		return token.OR, "|"
	case '+':
		switch c1 {
		case '+':
			return token.INC, "++"
		case '=':
			return token.PLUS_ASSIGN, "+="
		}
		return token.PLUS, "+"
	case '-':
		switch c1 {
		case '-':
			return token.DEC, "--"
		case '=':
			return token.MINUS_ASSIGN, "-="
		}
		return token.MINUS, "-"
	case '/':
		if c1 == '=' {
			return token.SLASH_ASSIGN, "/="
		}
		return token.SLASH, "/"
	case '%':
		if c1 == '=' {
			return token.PERCENT_ASSIGN, "%="
		}
		return token.PERCENT, "%"
	case '^':
		if c1 == '=' {
			return token.XOR_ASSIGN, "^="
		}
		return token.XOR, "^"
	}
	return token.ILLEGAL, ""
}

// AppendAll tokenizes the whole input into buf, so a caller can lex
// into a reused buffer: it returns buf extended by every token up to
// and including EOF, or up to the first error, with that error.
func AppendAll(buf []token.Token, src string) ([]token.Token, error) {
	l := New(src)
	for {
		t := l.Next()
		if l.Err() != nil {
			return buf, l.Err()
		}
		buf = append(buf, t)
		if t.Kind == token.EOF {
			return buf, nil
		}
	}
}
