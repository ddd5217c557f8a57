package sql

import "strings"

// MaxNormalizedLen bounds the normalized text Normalize returns. The
// fingerprint always covers the whole statement.
const MaxNormalizedLen = 1024

// FNV-1a 64-bit constants.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Normalize returns the statement-shape fingerprint of text and its
// normalized form, read off the parser's own tokens: keywords and
// identifiers lower-cased, a quoted identifier unquoted when it needs no
// quotes (as in QuoteIdent), numbers and strings as ?, a sign folded into
// the number it prefixes where it cannot be a binary operator, comments
// dropped, and one space between tokens. Where the lexer stops on an
// error, the rest of the text follows lower-cased with whitespace runs
// collapsed, so a statement that does not lex is fingerprinted too. The
// fingerprint is FNV-1a over the whole normalized text; the returned text
// stops at MaxNormalizedLen bytes, however long the statement.
func Normalize(text string) (uint64, string) {
	toks, err := lexPooled(text)
	defer releaseTokens(toks)
	return normalize(text, *toks, err)
}

// Parsed is one statement's text read once, by ParseNormalized: the
// statement it parses to, or the error that stopped it, and its shape.
type Parsed struct {
	Text        string
	Stmt        Stmt   // nil when Err is set
	Err         error  // the lexing or parsing error
	Fingerprint uint64 // Normalize(Text)'s fingerprint, set even when Err is
	Norm        string // Normalize(Text)'s normalized text
}

// ParseNormalized is the one reader of a statement's text: it lexes text
// once, normalizes the tokens (as Normalize) and parses them (as Parse).
// With rowStream set, text is the head a row stream is appended under,
// INSERT INTO <table> with nothing after it, and parses to an InsertStmt
// with no rows.
func ParseNormalized(text string, rowStream bool) Parsed {
	toks, err := lexPooled(text)
	defer releaseTokens(toks)
	p := Parsed{Text: text, Err: err}
	p.Fingerprint, p.Norm = normalize(text, *toks, err)
	if err != nil {
		return p
	}
	if rowStream {
		p.Stmt, p.Err = parseRowStreamHead(text, *toks)
	} else {
		p.Stmt, p.Err = parseTokens(text, *toks)
	}
	return p
}

// normalize renders the tokens lex returned for text, with err the lexing
// error they stop at, if any.
func normalize(text string, ts []Token, err error) (uint64, string) {
	w := normWriter{h: offset64}
	w.sb.Grow(min(len(text), MaxNormalizedLen))
	for i := 0; i < len(ts); i++ {
		t := ts[i]
		switch {
		case t.Kind == TokEOF:
		case t.Kind == TokNumber || t.Kind == TokString:
			w.token("?", false)
		case t.Kind == TokOp && (t.Text == "-" || t.Text == "+") &&
			i+1 < len(ts) && ts[i+1].Kind == TokNumber && (i == 0 || signContext(ts[i-1])):
			// WHERE x = -5 and WHERE x = 7 are one shape; a - 5 is not.
			w.token("?", false)
			i++
		case t.Kind == TokIdent && text[t.Pos] == '"':
			w.token(t.Text, !isPlainIdent(t.Text))
		default:
			w.token(t.Text, false)
		}
	}
	if le, ok := err.(*lexError); ok {
		w.sep()
		space := false
		for _, c := range []byte(text[le.off:]) {
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				space = true
				continue
			}
			if space {
				w.byte(' ')
				space = false
			}
			w.byte(lower(c))
		}
	}
	return w.h, w.sb.String()
}

// normWriter hashes every normalized byte and keeps the first
// MaxNormalizedLen of them.
type normWriter struct {
	h       uint64
	sb      strings.Builder
	started bool
}

func (w *normWriter) byte(c byte) {
	w.h = (w.h ^ uint64(c)) * prime64
	if w.sb.Len() < MaxNormalizedLen {
		w.sb.WriteByte(c)
	}
}

// sep writes the single space between two tokens.
func (w *normWriter) sep() {
	if w.started {
		w.byte(' ')
	}
	w.started = true
}

// token writes s lower-cased, in double quotes when quote is set.
func (w *normWriter) token(s string, quote bool) {
	w.sep()
	if quote {
		w.byte('"')
	}
	for i := 0; i < len(s); i++ {
		w.byte(lower(s[i]))
	}
	if quote {
		w.byte('"')
	}
}

// signContext reports whether prev is an operator or punctuation that
// cannot end an operand, so a '-' or '+' after it is a sign.
func signContext(prev Token) bool {
	return prev.Kind == TokOp && (len(prev.Text) == 2 || strings.Contains("(,=<>+-*/%", prev.Text))
}

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}
