package fingerprint

import "testing"

// FuzzNormalize feeds the normaliser — which runs on every statement text a
// client sends, parseable or not — arbitrary strings. It must not panic,
// Fingerprint must agree with Normalize, and normalizing the normalized
// text must return that text and fingerprint unchanged. The seed corpus is
// under testdata/fuzz/FuzzNormalize.
func FuzzNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		fp, norm := Normalize(sql)
		if got := Fingerprint(sql); got != fp {
			t.Fatalf("Fingerprint = %s, Normalize = %s", Hex(got), Hex(fp))
		}
		fp2, norm2 := Normalize(norm)
		if norm2 != norm || fp2 != fp {
			t.Fatalf("not idempotent:\n once  %q (%s)\n twice %q (%s)", norm, Hex(fp), norm2, Hex(fp2))
		}
	})
}
