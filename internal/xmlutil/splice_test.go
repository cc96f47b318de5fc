package xmlutil

import (
	"strings"
	"testing"
)

// startOf positions a tokenizer over doc on the first start tag named
// local.
func startOf(t *testing.T, tok *Tokenizer, doc, local string) {
	t.Helper()
	tok.Reset([]byte(doc))
	for {
		kind, err := tok.Next()
		if err != nil || kind == TokenEOF {
			t.Fatalf("no <%s> in %s: %v", local, doc, err)
		}
		if kind == TokenStart && tok.Name().Local == local {
			return
		}
	}
}

// TestCopyElementKeepsResolution: a copied element resolves every name
// as it did in its source, whatever the destination binds, and is copied
// byte for byte where the destination binds as the source does.
func TestCopyElementKeepsResolution(t *testing.T) {
	const src = `<e:E xmlns:e="urn:e" xmlns:a="urn:a" xmlns:b="urn:b" xmlns="urn:d"><e:C>` +
		`<a:R a:x="1" b:y="2"><plain/><b:V>t &amp; <![CDATA[<c>]]></b:V><a:V xmlns:a="urn:inner"/></a:R>` +
		`<a:R/><q:R xmlns:q="urn:q"><q:V/></q:R><e:R b:z=""/></e:C></e:E>`
	cases := []struct {
		name, dst string
		same      bool // the destination binds as the source: copies are verbatim
	}{
		{"same", `<e:E xmlns:e="urn:e" xmlns:a="urn:a" xmlns:b="urn:b" xmlns="urn:d"><e:C/></e:E>`, true},
		{"swapped", `<e:E xmlns:e="urn:e" xmlns:a="urn:b" xmlns:b="urn:a"><e:C/></e:E>`, false},
		{"bare", `<x:E xmlns:x="urn:e"><x:C/></x:E>`, false},
		{"other default", `<E xmlns="urn:other" xmlns:a="urn:a"><C xmlns:b="urn:zz"/></E>`, false},
	}
	for _, c := range cases {
		var dtok Tokenizer
		startOf(t, &dtok, c.dst, "C")
		into := dtok.Scope(nil)

		var tok Tokenizer
		startOf(t, &tok, src, "C")
		var copied []byte
		var verbatim strings.Builder
		for {
			kind, err := tok.Next()
			if err != nil {
				t.Fatal(err)
			}
			if kind == TokenEnd {
				break
			}
			from := tok.TagOffset()
			if copied, err = tok.CopyElement(copied, into); err != nil {
				t.Fatal(err)
			}
			verbatim.Write(tok.Bytes()[from:tok.Offset()])
		}
		if c.same && string(copied) != verbatim.String() {
			t.Errorf("%s: copy changed the bytes:\n got %s\nwant %s", c.name, copied, verbatim.String())
		}
		edit, err := dtok.AppendEdit(copied)
		if err != nil {
			t.Fatal(err)
		}
		merged := ApplyEdits([]byte(c.dst), edit)
		got, err := ParseBytes(merged)
		if err != nil {
			t.Fatalf("%s: merged document does not parse: %v\n%s", c.name, err, merged)
		}
		want, err := ParseBytes([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.ChildElements()[0].ChildElements(), want.ChildElements()[0].ChildElements()
		if len(g) != len(w) {
			t.Fatalf("%s: %d copies, want %d", c.name, len(g), len(w))
		}
		for i := range g {
			if !Equal(g[i], w[i]) {
				t.Errorf("%s: copy %d resolves differently:\n got %s\nwant %s\n(document %s)", c.name, i, MarshalString(g[i]), MarshalString(w[i]), merged)
			}
		}
	}
}

// TestContentEdits: content replaced and appended, in an element with
// content and in an empty-element tag.
func TestContentEdits(t *testing.T) {
	cases := []struct {
		doc     string
		replace bool
		want    string
	}{
		{`<r><a x="1">old<b/>text</a><z/></r>`, true, `<r><a x="1">NEW</a><z/></r>`},
		{`<r><a x="1">old<b/>text</a><z/></r>`, false, `<r><a x="1">old<b/>textNEW</a><z/></r>`},
		{`<r><p:a xmlns:p="u" x="1"/><z/></r>`, true, `<r><p:a xmlns:p="u" x="1">NEW</p:a><z/></r>`},
		{`<r><a></a></r>`, false, `<r><a>NEW</a></r>`},
	}
	for _, c := range cases {
		var tok Tokenizer
		startOf(t, &tok, c.doc, "a")
		edit := tok.AppendEdit
		if c.replace {
			edit = tok.ContentEdit
		}
		e, err := edit([]byte("NEW"))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(ApplyEdits([]byte(c.doc), e)); got != c.want {
			t.Errorf("%s (replace %v):\n got %s\nwant %s", c.doc, c.replace, got, c.want)
		}
		// The tokenizer goes on after the element.
		if kind, err := tok.Next(); err != nil || kind == TokenEOF {
			t.Errorf("%s: after the edit: %v %v", c.doc, kind, err)
		}
	}
}
