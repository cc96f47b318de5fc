package xmlutil

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	root, err := ParseString(`<a xmlns="urn:x"><b attr="1">hi</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name.Space != "urn:x" || root.Name.Local != "a" {
		t.Fatalf("root name = %v", root.Name)
	}
	b := root.Find("urn:x", "b")
	if b == nil {
		t.Fatal("missing b")
	}
	if got := b.Text(); got != "hi" {
		t.Fatalf("b text = %q", got)
	}
	if v, ok := b.Attr("", "attr"); !ok || v != "1" {
		t.Fatalf("attr = %q %v", v, ok)
	}
	if root.Find("urn:x", "c") == nil {
		t.Fatal("missing c")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"not xml",
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	docs := []string{
		`<a xmlns="urn:x"><b attr="1">hi</b><c/></a>`,
		`<root><child>text &amp; more</child><child>two</child></root>`,
		`<p:a xmlns:p="urn:p" xmlns:q="urn:q"><q:b p:x="v">t</q:b></p:a>`,
		`<a>mixed <b>inner</b> tail</a>`,
	}
	for _, d := range docs {
		e1, err := ParseString(d)
		if err != nil {
			t.Fatalf("parse %q: %v", d, err)
		}
		out := MarshalString(e1)
		e2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		if !Equal(e1, e2) {
			t.Errorf("round trip changed document:\n in: %s\nout: %s", d, out)
		}
	}
}

func TestTextEscaping(t *testing.T) {
	e := NewElement("", "a")
	e.SetText(`<>&"special`)
	out := MarshalString(e)
	got, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != `<>&"special` {
		t.Fatalf("text = %q", got.Text())
	}
}

func TestAttrEscaping(t *testing.T) {
	e := NewElement("", "a")
	e.SetAttr("", "v", `quote " amp & lt <`)
	got, err := ParseString(MarshalString(e))
	if err != nil {
		t.Fatal(err)
	}
	if v := got.AttrValue("", "v"); v != `quote " amp & lt <` {
		t.Fatalf("attr = %q", v)
	}
}

func TestFluentBuild(t *testing.T) {
	root := NewElement("urn:ns", "doc")
	root.Add("urn:ns", "item").SetText("one").SetAttr("", "k", "v")
	root.AddText("urn:ns", "item", "two")
	items := root.FindAll("urn:ns", "item")
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Text() != "one" || items[1].Text() != "two" {
		t.Fatal("wrong item text")
	}
	if items[0].Parent() != root {
		t.Fatal("parent not set")
	}
}

func TestPath(t *testing.T) {
	root, _ := ParseString(`<a xmlns="u"><b><c>deep</c></b></a>`)
	c := root.Path("u", "b", "c")
	if c == nil || c.Text() != "deep" {
		t.Fatalf("Path = %v", c)
	}
	if root.Path("u", "b", "missing") != nil {
		t.Fatal("expected nil for missing path")
	}
}

func TestClone(t *testing.T) {
	orig, _ := ParseString(`<a x="1"><b>t</b><c><d/></c></a>`)
	cp := orig.Clone()
	if !Equal(orig, cp) {
		t.Fatal("clone not equal")
	}
	cp.Find("", "b").SetText("changed")
	if orig.Find("", "b").Text() != "t" {
		t.Fatal("clone shares state with original")
	}
	if cp.Parent() != nil {
		t.Fatal("clone parent should be nil")
	}
}

func TestRemoveChild(t *testing.T) {
	root, _ := ParseString(`<a><b/><c/></a>`)
	b := root.Find("", "b")
	if !root.RemoveChild(b) {
		t.Fatal("remove failed")
	}
	if root.Find("", "b") != nil {
		t.Fatal("b still present")
	}
	if root.RemoveChild(b) {
		t.Fatal("second remove should fail")
	}
}

func TestFindNamespaceFilter(t *testing.T) {
	root, _ := ParseString(`<a xmlns:p="urn:p"><p:x/><x/></a>`)
	if el := root.Find("urn:p", "x"); el == nil || el.Name.Space != "urn:p" {
		t.Fatal("namespaced find failed")
	}
	// empty space matches any namespace
	if els := root.FindAll("", "x"); len(els) != 2 {
		t.Fatalf("FindAll any-ns = %d", len(els))
	}
}

func TestWhitespaceTrimming(t *testing.T) {
	root, err := ParseString("<a>\n  <b>keep me</b>\n  <c> x </c>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2 (whitespace dropped)", len(root.Children))
	}
	if root.Find("", "c").Text() != " x " {
		t.Fatal("leaf text should not be trimmed")
	}
}

func TestMarshalIndent(t *testing.T) {
	root, _ := ParseString(`<a><b>t</b><c><d/></c></a>`)
	out := string(MarshalIndent(root))
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("indented output unparsable: %v\n%s", err, out)
	}
	if !Equal(root, re) {
		t.Fatalf("indent changed content:\n%s", out)
	}
	if !strings.Contains(out, "\n") {
		t.Fatal("expected newlines in indented output")
	}
}

func TestEqualDifferences(t *testing.T) {
	a, _ := ParseString(`<a x="1"><b/></a>`)
	cases := []string{
		`<a x="2"><b/></a>`,
		`<a x="1"><c/></a>`,
		`<a x="1"><b/><b/></a>`,
		`<a><b/></a>`,
		`<z x="1"><b/></a>`[:0] + `<z x="1"><b/></z>`,
	}
	for _, c := range cases {
		b, err := ParseString(c)
		if err != nil {
			t.Fatal(err)
		}
		if Equal(a, b) {
			t.Errorf("Equal(%s, %s) = true", MarshalString(a), c)
		}
	}
	if !Equal(nil, nil) {
		t.Fatal("Equal(nil, nil) should be true")
	}
	if Equal(a, nil) || Equal(nil, a) {
		t.Fatal("Equal with one nil should be false")
	}
}

// Property: any element built from printable text round-trips through
// Marshal/Parse unchanged.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// XML cannot represent most control characters; restrict to
		// the printable subset plus the characters we escape.
		clean := strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || (r >= 0x20 && r != 0xFFFE && r != 0xFFFF && !(r >= 0xD800 && r <= 0xDFFF)) {
				return r
			}
			return -1
		}, s)
		e := NewElement("urn:t", "doc")
		e.SetText(clean)
		got, err := ParseString(MarshalString(e))
		if err != nil {
			return false
		}
		// \r is normalised to \n by XML line-end handling; accept that.
		want := strings.ReplaceAll(clean, "\r\n", "\n")
		want = strings.ReplaceAll(want, "\r", "\n")
		return got.Text() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: attribute values round-trip.
func TestQuickAttrRoundTrip(t *testing.T) {
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r >= 0x20 && r != 0xFFFE && r != 0xFFFF && !(r >= 0xD800 && r <= 0xDFFF) {
				return r
			}
			return -1
		}, s)
		e := NewElement("", "doc")
		e.SetAttr("", "a", clean)
		got, err := ParseString(MarshalString(e))
		if err != nil {
			return false
		}
		return got.AttrValue("", "a") == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clone always compares Equal and is structurally independent.
func TestQuickCloneEqual(t *testing.T) {
	f := func(names []string, texts []string) bool {
		root := NewElement("urn:q", "root")
		cur := root
		for i, n := range names {
			if n == "" {
				n = "n"
			}
			n = sanitizeName(n)
			child := cur.Add("urn:q", n)
			if i < len(texts) {
				child.SetText(texts[i])
			}
			cur = child
		}
		return Equal(root, root.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "n"
	}
	return b.String()
}

func BenchmarkMarshal(b *testing.B) {
	root := NewElement("urn:b", "rows")
	for i := 0; i < 100; i++ {
		r := root.Add("urn:b", "row")
		r.AddText("urn:b", "id", "42")
		r.AddText("urn:b", "name", "benchmark row value")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(root)
	}
}

func BenchmarkParse(b *testing.B) {
	root := NewElement("urn:b", "rows")
	for i := 0; i < 100; i++ {
		r := root.Add("urn:b", "row")
		r.AddText("urn:b", "id", "42")
		r.AddText("urn:b", "name", "benchmark row value")
	}
	doc := MarshalString(root)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLazyNodeIsARawRenderedLate: a tree holding a Lazy serialises to
// the bytes of the same tree holding the fragment as a Raw, whatever it
// is written to; clones share the node and Equal compares renderings.
func TestLazyNodeIsARawRenderedLate(t *testing.T) {
	const fragment = `<p:doc xmlns:p="urn:payload"><p:cell>a &amp; b</p:cell></p:doc>`
	build := func(n Node) *Element {
		root := NewElement("urn:t", "Reply")
		root.AddText("urn:t", "Before", "x")
		holder := root.Add("urn:t", "Dataset")
		holder.Children = append(holder.Children, n)
		root.AddText("urn:t", "After", "y")
		return root
	}
	calls := 0
	lazy := build(Lazy(func(dst []byte) []byte { calls++; return append(dst, fragment...) }))
	want := Marshal(build(Raw(fragment)))
	if got := Marshal(lazy); !bytes.Equal(got, want) {
		t.Fatalf("Marshal:\n got %s\nwant %s", got, want)
	}
	small := bytes.NewBuffer(make([]byte, 0, 8)) // no room: the fragment is rendered elsewhere, then copied
	var viaWriter bytes.Buffer
	if EncodeTo(small, lazy); !bytes.Equal(small.Bytes(), want) {
		t.Fatalf("EncodeTo a short buffer: %s", small.Bytes())
	}
	if err := EncodeTo(struct{ io.Writer }{&viaWriter}, lazy); err != nil || !bytes.Equal(viaWriter.Bytes(), want) {
		t.Fatalf("EncodeTo a plain writer: %v, %s", err, viaWriter.Bytes())
	}
	if got := MarshalString(lazy.Clone()); got != string(want) {
		t.Fatalf("clone: %s", got)
	}
	if !Equal(lazy, lazy.Clone()) || Equal(lazy, build(Lazy(func(dst []byte) []byte { return append(dst, `<other/>`...) }))) {
		t.Fatal("Equal does not compare what Lazy nodes render")
	}
	if calls == 0 {
		t.Fatal("the fragment was never rendered")
	}
}
