package signal

import "testing"

// FuzzSignalParse asserts the stimulus parser's contract on arbitrary
// input: it never panics, it agrees with the strings.Fields-based
// reference parser (same signal or same error text), and every accepted
// text round-trips through the canonical format — Parse(s.String()) is s
// exactly — so a stimulus keeps its content hash however it was spelled.
// Seeds include inputs the strict parser rejects (trailing junk after a
// time) and Unicode separators and invalid UTF-8.
func FuzzSignalParse(f *testing.F) {
	for _, s := range []string{
		"0", "1", "", "0 r@1 f@2.5", "1 f@0 r@1e-9 f@3e300", "  0\tr@1\n f@2 ",
		"0 r@1,5", "0 r@1.5.7 f@3", "0 r@1x f@2",
		"0 r@-1", "0 r@2 f@1", "0 f@1", "0 r@NaN", "0 r@Inf", "0 r@0x1p-2", "2",
		"0\u0085r@1\u00a0f@2", "0\u2028r@1\u3000f@2", "\v0\fr@1\r", "0\u200br@1",
		"0\xffr@1", "0 r@1\xff", "0 \xc2 r@1", "0 r@1\xe3\x80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkParseMatches(t, text)
		s, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q is rejected: %v", text, s.String(), err)
		}
		if !back.Equal(s, 0) || back.String() != s.String() {
			t.Fatalf("round trip of %q: %q became %q", text, s.String(), back.String())
		}
	})
}
