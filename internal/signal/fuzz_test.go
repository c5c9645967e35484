package signal

import "testing"

// FuzzSignalParse asserts the stimulus parser's contract on arbitrary
// input: it never panics, and every accepted text round-trips through the
// canonical format — Parse(s.String()) is s exactly — so a stimulus keeps
// its content hash however it was spelled. Seeds include inputs the
// strict parser rejects (trailing junk after a time).
func FuzzSignalParse(f *testing.F) {
	for _, s := range []string{
		"0", "1", "", "0 r@1 f@2.5", "1 f@0 r@1e-9 f@3e300", "  0\tr@1\n f@2 ",
		"0 r@1,5", "0 r@1.5.7 f@3", "0 r@1x f@2",
		"0 r@-1", "0 r@2 f@1", "0 f@1", "0 r@NaN", "0 r@Inf", "0 r@0x1p-2", "2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
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
