// Package sql implements the engine's SQL front end: a hand-written lexer
// and recursive-descent parser covering the dialect the reproduction needs —
// SELECT with nested FROM subqueries, joins (comma-list, JOIN ... ON, and
// the paper's MODEL JOIN extension), WHERE, GROUP BY, ORDER BY, LIMIT,
// searched CASE, scalar functions, CREATE TABLE / CREATE MODEL TABLE and
// INSERT. The generated ML-To-SQL queries (Listings 2–4) parse with this
// grammar unmodified.
package sql

import (
	"fmt"
	"strings"
	"sync"
)

// TokKind classifies a lexical token.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp    // operators and punctuation
	TokParam // ? placeholders (reserved for future use)
)

// Token is one lexical token with its source position for error messages.
type Token struct {
	Kind TokKind
	Text string // keywords are upper-cased, identifiers keep original case
	Pos  int
}

// keywords maps each keyword to itself: a keyword token's Text is this
// canonical upper-case string, so lexing allocates nothing per keyword.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AS",
		"AND", "OR", "NOT", "CASE", "WHEN", "THEN", "ELSE", "END", "ASC",
		"DESC", "CREATE", "TABLE", "INSERT", "INTO", "VALUES", "NULL", "TRUE",
		"FALSE", "JOIN", "ON", "MODEL", "USING", "PARTITIONS", "SORTED",
		"CAST", "UNION", "ALL", "DISTINCT", "BETWEEN", "IN", "IS", "DROP",
		"EXPLAIN", "DEVICE", "PREDICT", "HAVING", "DELETE", "UPDATE", "SET",
		"ANALYZE", "KILL", "SHARD", "META", "ORIGIN",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (PARTITIONS).
const maxKeywordLen = 10

// keyword returns the canonical keyword word spells, case-insensitively.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// tokenBufs holds token slices for the parser to reuse: a statement's AST
// keeps substrings of its text, never its tokens, so the tokens are dead
// once it is parsed, and lexing a statement allocates no token slice.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens bounds the slices tokenBufs keeps (2 MiB of tokens).
const maxPooledTokens = 1 << 16

// lexPooled lexes input into a pooled token slice, which releaseTokens
// hands back once the tokens are no longer read.
func lexPooled(input string) (*[]Token, error) {
	buf := tokenBufs.Get().(*[]Token)
	var err error
	*buf, err = lex(input, (*buf)[:0])
	return buf, err
}

func releaseTokens(buf *[]Token) {
	if cap(*buf) > maxPooledTokens {
		return
	}
	clear(*buf) // drop the references into the statement
	*buf = (*buf)[:0]
	tokenBufs.Put(buf)
}

// lexError is a lexing failure at byte offset off of the statement; the
// tokens before off lexed cleanly.
type lexError struct {
	off  int
	what string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql: %s at offset %d", e.what, e.off)
}

// lex appends input's tokens to toks. It fails with a *lexError on
// unterminated strings and illegal characters. Token texts are substrings
// of input wherever the token is spelled as its text (everything but
// keywords and strings with doubled quotes), so lexing allocates nothing
// per token.
func lex(input string, toks []Token) ([]Token, error) {
	n := len(input)
	i := 0
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			// Digits, one optional '.', then an optional exponent with
			// an optional sign: each part is one tight loop.
			start := i
			i = skipDigits(input, i)
			if i < n && input[i] == '.' {
				i = skipDigits(input, i+1)
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				i++
				if i < n && (input[i] == '+' || input[i] == '-') {
					i++
				}
				i = skipDigits(input, i)
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			text, end, ok := lexString(input, i)
			if !ok {
				return toks, &lexError{start, "unterminated string literal"}
			}
			toks = append(toks, Token{Kind: TokString, Text: text, Pos: start})
			i = end
		case c == '"':
			start := i
			i++
			j := i
			for j < n && input[j] != '"' {
				j++
			}
			if j >= n {
				return toks, &lexError{start, "unterminated quoted identifier"}
			}
			if j == i {
				return toks, &lexError{start, "zero-length quoted identifier"}
			}
			toks = append(toks, Token{Kind: TokIdent, Text: input[i:j], Pos: start})
			i = j + 1
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			if i+1 < n {
				switch two := input[i : i+2]; two {
				case "<=", ">=", "<>", "!=", "||":
					toks = append(toks, Token{Kind: TokOp, Text: two, Pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';', '?':
				toks = append(toks, Token{Kind: TokOp, Text: input[i : i+1], Pos: start})
				i++
			default:
				return toks, &lexError{i, fmt.Sprintf("illegal character %q", c)}
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

// lexString reads the string literal whose opening quote is input[start]:
// its value, the offset just past its closing quote, and whether it is
// terminated. A literal without doubled quotes is a substring of input.
func lexString(input string, start int) (string, int, bool) {
	i := start + 1
	for i < len(input) && input[i] != '\'' {
		i++
	}
	if i >= len(input) {
		return "", 0, false
	}
	if i+1 >= len(input) || input[i+1] != '\'' {
		return input[start+1 : i], i + 1, true
	}
	var sb strings.Builder
	sb.WriteString(input[start+1 : i])
	for {
		if i >= len(input) {
			return "", 0, false
		}
		if input[i] == '\'' {
			if i+1 < len(input) && input[i+1] == '\'' { // escaped quote
				sb.WriteByte('\'')
				i += 2
				continue
			}
			return sb.String(), i + 1, true
		}
		sb.WriteByte(input[i])
		i++
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipDigits returns the offset of the first non-digit at or after i.
func skipDigits(input string, i int) int {
	for i < len(input) && isDigit(input[i]) {
		i++
	}
	return i
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
