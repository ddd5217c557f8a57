package sql

import (
	"hash/fnv"
	"strings"
	"testing"
)

// fnv1a is the fingerprint of an untruncated normalized text.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// FuzzNormalize feeds the normaliser — which runs on every statement text a
// client sends, parseable or not — arbitrary strings. It must not panic and
// the normalized text must stop at MaxNormalizedLen; below that length the
// fingerprint must be the text's hash and normalizing the text must return
// it unchanged. ParseNormalized must agree with Normalize and with Parse,
// so a statement Parse accepts lexed cleanly and normalizes without an
// error tail, and its normalized text must lex cleanly too. The seed corpus
// is under testdata/fuzz/FuzzNormalize.
func FuzzNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		fp, norm := Normalize(text)
		if len(norm) > MaxNormalizedLen {
			t.Fatalf("normalized text is %d bytes, more than %d", len(norm), MaxNormalizedLen)
		}
		// A truncated text says nothing of the bytes cut off, nor is it
		// a normalized statement: the cut may end a quoted identifier
		// early, so the rest of the text reads as an error tail.
		if len(norm) < MaxNormalizedLen {
			if got := fnv1a(norm); got != fp {
				t.Fatalf("fingerprint %x, hash of %q is %x", fp, norm, got)
			}
			if fp2, norm2 := Normalize(norm); norm2 != norm || fp2 != fp {
				t.Fatalf("not idempotent:\n once  %q (%x)\n twice %q (%x)", norm, fp, norm2, fp2)
			}
		}
		p := ParseNormalized(text, false)
		_, err := Parse(text)
		if p.Fingerprint != fp || p.Norm != norm || (p.Err == nil) != (err == nil) || (p.Stmt == nil) != (err != nil) {
			t.Fatalf("ParseNormalized = %x %q %v; Normalize = %x %q, Parse error %v", p.Fingerprint, p.Norm, p.Err, fp, norm, err)
		}
		if err != nil || len(norm) >= MaxNormalizedLen {
			return
		}
		if _, err := lex(norm, nil); err != nil {
			t.Fatalf("%q parses, but its normalized text %q does not lex: %v", text, norm, err)
		}
	})
}

func TestNormalizeFoldsLiterals(t *testing.T) {
	cases := []struct{ a, b string }{
		{"SELECT * FROM t WHERE id = 5", "SELECT * FROM t WHERE id = 42"},
		{"SELECT * FROM t WHERE id = 5", "select  *  from T where ID=7"},
		{"SELECT * FROM t WHERE name = 'a'", "SELECT * FROM t WHERE name = 'zz''q'"},
		{"SELECT * FROM t WHERE x = -5", "SELECT * FROM t WHERE x = -9.25"},
		{"SELECT * FROM t WHERE x = 1e3", "SELECT * FROM t WHERE x = 2.5e-2"},
		{"SELECT * FROM t WHERE x = .5", "SELECT * FROM t WHERE x = 0.5"},
		{"SELECT a FROM t LIMIT 10", "SELECT a FROM t LIMIT 99"},
		{"INSERT INTO t VALUES (1, 'x')", "INSERT INTO t VALUES (2, 'y')"},
		{"SELECT * FROM system.queries", "SELECT * FROM \"system\".\"queries\""},
		{"SELECT * FROM system.queries", "SELECT * FROM SYSTEM.QUERIES"},
		{"SELECT a\n\tFROM t", "SELECT a FROM t"},
		{"SELECT a FROM t -- why", "SELECT a FROM t"},
		{"  SELECT 1  ", "SELECT 2"},
	}
	for _, c := range cases {
		fa, na := Normalize(c.a)
		fb, nb := Normalize(c.b)
		if na != nb {
			t.Errorf("normalized text differs:\n  %q -> %q\n  %q -> %q", c.a, na, c.b, nb)
		}
		if fa != fb {
			t.Errorf("fingerprints differ for %q vs %q: %x vs %x", c.a, c.b, fa, fb)
		}
	}
}

func TestNormalizeDistinguishesShapes(t *testing.T) {
	cases := [][2]string{
		{"SELECT a FROM t", "SELECT b FROM t"},
		{"SELECT a FROM t", "SELECT a FROM u"},
		{"SELECT a FROM t", "SELECT a FROM t WHERE a = 1"},
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a > 1"},
		{"SELECT a - 1 FROM t", "SELECT a + 1 FROM t"},
		{"SELECT a FROM t", "SELECT a FROM t LIMIT 1"},
		{"SELECT a FROM t WHERE a < 1", "SELECT a FROM t WHERE a <= 1"},
	}
	for _, c := range cases {
		fa, _ := Normalize(c[0])
		fb, _ := Normalize(c[1])
		if fa == fb {
			t.Errorf("distinct shapes collided: %q vs %q", c[0], c[1])
		}
	}
}

func TestNormalizeText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  *  FROM T WHERE id = 5", "select * from t where id = ?"},
		{"select name from t where name='x'  limit  3", "select name from t where name = ? limit ?"},
		{"SELECT a FROM \"System\".\"Queries\"", "select a from system . queries"},
		{"SELECT \"Mixed Case\", \"it's\", \"5x\", \"\" FROM t", "select \"mixed case\" , \"it's\" , \"5x\" , \"\" from t"},
		{"", ""},
		{"   ", ""},
		{"SELECT a FROM t WHERE x <= 5", "select a from t where x <= ?"},
		{"SELECT \"From\" FROM \"T\"", "select \"from\" from t"},
		{"SELECT .5, 0.5, a-1, -2", "select ? , ? , a - ? , ?"},
		{"SELECT a -- first\nFROM t -- last", "select a from t"},
		{"SELECT 'It''s  OPEN\n  FROM T", "select 'it''s open from t"},
	}
	for _, c := range cases {
		if _, got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) text = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFingerprintMatchesNormalizedHash(t *testing.T) {
	// The fingerprint is FNV-1a over the normalized text, and the
	// normalized text is a fixed point.
	stmts := []string{
		"SELECT * FROM t WHERE id = 5 AND name = 'x'",
		"  EXPLAIN ANALYZE SELECT a, b FROM t MODEL JOIN m PREDICT (a, b)",
		"KILL 17",
		"not even sql '' 5 --",
		"SELECT a FROM t WHERE b = $1",
	}
	for _, s := range stmts {
		fp, norm := Normalize(s)
		if fp != fnv1a(norm) {
			t.Errorf("fingerprint of %q is not the hash of %q", s, norm)
		}
		fp2, norm2 := Normalize(norm)
		if norm2 != norm || fp2 != fp {
			t.Errorf("normalization not idempotent for %q: %q -> %q", s, norm, norm2)
		}
	}
}

// TestNormalizeLongStatement: the fingerprint covers the whole statement
// while the text stops at MaxNormalizedLen, so statements that differ only
// past that length are two shapes.
func TestNormalizeLongStatement(t *testing.T) {
	head := "SELECT a FROM t WHERE " + strings.Repeat("a = b AND ", MaxNormalizedLen/10)
	fa, na := Normalize(head + "c = d")
	fb, nb := Normalize(head + "c < d")
	if fa == fb {
		t.Error("statements differing past the text limit share a fingerprint")
	}
	if len(na) != MaxNormalizedLen || na != nb {
		t.Errorf("normalized texts are %d and %d bytes, want one %d-byte prefix", len(na), len(nb), MaxNormalizedLen)
	}
}
