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
	"unicode"
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

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"END": true, "ASC": true, "DESC": true, "CREATE": true, "TABLE": true,
	"INSERT": true, "INTO": true, "VALUES": true, "NULL": true, "TRUE": true,
	"FALSE": true, "JOIN": true, "ON": true, "MODEL": true, "USING": true,
	"PARTITIONS": true, "SORTED": true, "CAST": true, "UNION": true,
	"ALL": true, "DISTINCT": true, "BETWEEN": true, "IN": true, "IS": true,
	"DROP": true, "EXPLAIN": true, "DEVICE": true, "PREDICT": true,
	"HAVING": true, "DELETE": true, "UPDATE": true, "SET": true,
	"ANALYZE": true, "KILL": true, "SHARD": true, "META": true,
	"ORIGIN": true,
}

// Lex tokenizes a SQL string. It returns an error on unterminated strings
// or illegal characters.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot, seenExp := false, false
			for i < n {
				d := input[i]
				if unicode.IsDigit(rune(d)) {
					i++
				} else if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
				} else if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < n && (input[i] == '+' || input[i] == '-') {
						i++
					}
				} else {
					break
				}
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
				}
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case c == '"':
			start := i
			i++
			j := i
			for j < n && input[j] != '"' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			if j == i {
				return nil, fmt.Errorf("sql: zero-length quoted identifier at offset %d", start)
			}
			toks = append(toks, Token{Kind: TokIdent, Text: input[i:j], Pos: start})
			i = j + 1
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, Token{Kind: TokOp, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';', '?':
				toks = append(toks, Token{Kind: TokOp, Text: string(c), Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: illegal character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
