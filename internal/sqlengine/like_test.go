package sqlengine

import (
	"regexp"
	"strings"
	"testing"
)

// likeOracle is the regexp translation LIKE used to run on: the
// reference the rune-wise matcher must agree with, invalid UTF-8 in
// subject and pattern included (regexp reads an invalid byte as one
// U+FFFD, in the pattern as in the subject).
func likeOracle(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

var likeSeeds = [][2]string{
	{"", ""}, {"", "%"}, {"abc", "abc"}, {"abc", "ab"}, {"abc", "a%"}, {"abc", "%c"}, {"abc", "%b%"},
	{"abc", "_b_"}, {"abc", "a_"}, {"abc", "%_"}, {"abc", "_%_%_"}, {"abc", "____"}, {"a%c", "a%c"},
	{"k3-000042-payload", "k3%"}, {"v-013", "%1_"}, {"aaaaaaaaab", "%a%a%a%b"}, {"aaaaaaaaaa", "%a%a%a%b"},
	{"héllo", "h_llo"}, {"héllo", "h%o"}, {"日本語", "_本_"}, {"日本語", "%語"}, {"a.c", "a.c"}, {"abc", "a.c"},
	{"line\nbreak", "line_break"}, {"line\nbreak", "%break"}, {"(x)[y]", "(x)[y]"}, {"x\\y", "x\\y"},
	// Invalid UTF-8: a stray byte is one character, and equals U+FFFD.
	{"a\xffc", "a_c"}, {"a\xffc", "a\xffc"}, {"a\xffc", "a�c"}, {"a�c", "a\xffc"}, {"a\xffc", "a%"},
	{"\xe6\x97", "__"}, {"\xe6\x97", "_"}, {"\xe6\x97\xa5", "_"}, {"ab\xff", "%\xff"}, {"ab\xff", "%\xfe"},
	{"\xc3\xa9", "\xc3%"}, {"x\xc3", "%\xc3"}, {"\xa9", "%\xa9%"}, {"é", "\xc3_"},
}

func checkLike(t *testing.T, s, pattern string) {
	t.Helper()
	re, err := likeOracle(pattern)
	if err != nil {
		t.Skip("pattern too large for the oracle")
	}
	p := compileLike(pattern)
	if got, want := p.match(s), re.MatchString(s); got != want {
		t.Fatalf("%q LIKE %q = %v, the regexp oracle says %v (kind %d)", s, pattern, got, want, p.kind)
	}
}

func TestLikeMatchesOracle(t *testing.T) {
	for _, c := range likeSeeds {
		checkLike(t, c[0], c[1])
	}
}

// FuzzLikeMatch holds the rune-wise LIKE matcher — fast paths and
// backtracking — to the regexp translation it replaced.
func FuzzLikeMatch(f *testing.F) {
	for _, c := range likeSeeds {
		f.Add(c[0], c[1])
	}
	f.Fuzz(checkLike)
}
