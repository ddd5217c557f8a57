// Package fingerprint turns SQL text into a stable 64-bit statement
// fingerprint: literals are replaced with '?', identifiers and keywords are
// case-folded, and whitespace is collapsed, so every parameterization of
// the same statement shape hashes to the same value. The fingerprint is the
// aggregation key for cumulative per-statement-shape statistics
// (system.statement_stats) that survive the flight recorder's ring
// wrap-around.
//
// Normalization is a single left-to-right pass over the raw text, not a
// parse: it must fingerprint statements that fail to parse too (an
// error-prone statement shape is exactly the kind worth aggregating), and
// it runs once per statement on the serving path, so it stays allocation-
// light (one output buffer) and never backtracks.
package fingerprint

import "strings"

// FNV-1a 64-bit constants.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hex renders a fingerprint as the fixed 16-digit lowercase hex string
// used across the system tables and the slow-query log, so table rows and
// log lines join on equal strings.
func Hex(fp uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[fp&0xf]
		fp >>= 4
	}
	return string(b[:])
}

// Fingerprint returns the 64-bit fingerprint of the statement's normalized
// form. Equivalent to hashing Normalize(sql) but without materializing the
// normalized text.
func Fingerprint(sql string) uint64 {
	h, _ := normalize(sql, false)
	return h
}

// Normalize returns the fingerprint together with the normalized statement
// text (literals folded to '?', case-folded, whitespace-collapsed).
func Normalize(sql string) (uint64, string) {
	return normalize(sql, true)
}

// normalize walks the raw SQL once, streaming normalized bytes into the
// FNV-1a accumulator (and, when wantText is set, into a builder). Tokens
// are recognized lexically:
//
//   - '...' string literals and numeric literals become a single '?'
//   - words are lowercased (keywords and identifiers alike — the engine's
//     catalog is case-insensitive, so SELECT ID and select id are the same
//     statement shape)
//   - "..." quoted identifiers lowercase like plain identifiers (the
//     catalog lookup is case-insensitive either way) and drop their quotes
//     when what they quote is a plain word; any other content (empty,
//     spaces, digits first, quotes, operators) keeps them, so that the
//     normalized text normalizes to itself
//   - source whitespace is discarded entirely; the canonical form has
//     exactly one space between every pair of tokens, so "id=5" and
//     "id = 7" normalize identically
//   - operators and punctuation pass through verbatim
func normalize(sql string, wantText bool) (uint64, string) {
	var (
		h  uint64 = offset64
		sb strings.Builder
	)
	if wantText {
		sb.Grow(len(sql))
	}
	emit := func(c byte) {
		h = (h ^ uint64(c)) * prime64
		if wantText {
			sb.WriteByte(c)
		}
	}
	emitted := false
	// startTok emits the canonical single-space separator before every
	// token but the first; source whitespace never reaches the hash.
	startTok := func() {
		if emitted {
			emit(' ')
		}
		emitted = true
	}

	n := len(sql)
	for i := 0; i < n; {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			// String literal: skip to the closing quote ('' escapes).
			i++
			for i < n {
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			startTok()
			emit('?')
		case c >= '0' && c <= '9':
			// Numeric literal (integer, decimal, exponent, hex).
			i = scanNumber(sql, i)
			startTok()
			emit('?')
		case c == '"':
			// Quoted identifier: fold to the unquoted lowercase spelling.
			j := i + 1
			for j < n && sql[j] != '"' {
				j++
			}
			word := sql[i+1 : j]
			if j < n {
				j++
			}
			i = j
			startTok()
			plain := isWord(word)
			if !plain {
				emit('"')
			}
			for k := 0; k < len(word); k++ {
				emit(lower(word[k]))
			}
			if !plain {
				emit('"')
			}
		case isWordStart(c):
			start := i
			for i < n && isWordPart(sql[i]) {
				i++
			}
			word := sql[start:i]
			startTok()
			for k := 0; k < len(word); k++ {
				emit(lower(word[k]))
			}
		case c == '-' || c == '+':
			// A sign directly before a number folds into the literal when it
			// cannot be a binary operator (it follows an operator, a comma,
			// an open paren, or starts the statement): WHERE x = -5 and
			// WHERE x = -7 must fingerprint alike.
			if i+1 < n && sql[i+1] >= '0' && sql[i+1] <= '9' && signContext(sql, i) {
				i = scanNumber(sql, i+1)
				startTok()
				emit('?')
			} else {
				startTok()
				emit(c)
				i++
			}
		default:
			startTok()
			emit(c)
			i++
		}
	}
	return h, sb.String()
}

// signContext reports whether the nearest non-space byte before pos is an
// operator or punctuation that cannot end an operand — meaning a following
// '-' or '+' must be a sign, not a binary operator.
func signContext(sql string, pos int) bool {
	for j := pos - 1; j >= 0; j-- {
		c := sql[j]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		switch c {
		case '(', ',', '=', '<', '>', '+', '-', '*', '/', '%':
			return true
		}
		return false
	}
	return true // start of statement
}

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func isWordStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordPart(c byte) bool {
	return isWordStart(c) || (c >= '0' && c <= '9')
}

// isWord reports whether s lexes as exactly one unquoted word.
func isWord(s string) bool {
	if s == "" || !isWordStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isWordPart(s[i]) {
			return false
		}
	}
	return true
}

// scanNumber consumes a numeric literal starting at the digit at pos and
// returns the index just past it. The tail match is loose (decimal point,
// exponent with optional sign, hex digits/prefix): bare SQL never
// juxtaposes a number and a word without a separator, so looseness cannot
// eat a real token.
func scanNumber(sql string, pos int) int {
	n := len(sql)
	i := pos + 1
	for i < n {
		c := sql[i]
		if isNumPart(c) {
			i++
			continue
		}
		// An exponent's sign: 2.5e-2, 1E+9.
		if (c == '-' || c == '+') && (sql[i-1] == 'e' || sql[i-1] == 'E') &&
			i+1 < n && sql[i+1] >= '0' && sql[i+1] <= '9' {
			i++
			continue
		}
		break
	}
	return i
}

func isNumPart(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
		c == 'x' || c == 'X' || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
