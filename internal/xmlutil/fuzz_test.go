package xmlutil

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the XML parser. Three properties:
// the parser never panics; any document it accepts survives a
// marshal → reparse round trip with the same root identity (the
// stability the SOAP layer relies on when it re-encodes decoded
// envelopes); and keeping an element's content verbatim changes
// neither which documents parse nor what they mean once re-marshalled.
func FuzzParse(f *testing.F) {
	f.Add(`<a/>`)
	f.Add(`<ns:a xmlns:ns="urn:x" k="v"><b>text</b><!--c--></ns:a>`)
	f.Add(`<a xmlns="urn:d"><b xmlns=""><c/></b>tail</a>`)
	f.Add(`<?xml version="1.0" encoding="utf-8"?><a>&lt;&amp;&gt;</a>`)
	f.Add(`<a><![CDATA[<raw>]]></a>`)
	f.Add("<a>\xff\xfe</a>")
	f.Add(`<e xmlns:o="urn:o"><b><r:x xmlns:r="urn:r">t<r:y/></r:x></b><b><o:x/></b><b>text</b></e>`)
	f.Fuzz(func(t *testing.T, s string) {
		root, err := ParseString(s)
		keep := []Name{{Local: "b"}}
		if root != nil && len(root.ChildElements()) > 0 {
			keep = append(keep, root.ChildElements()[0].Name)
		}
		kept, keptErr := ParseBytesVerbatim([]byte(s), keep)
		if (err == nil) != (keptErr == nil) {
			t.Fatalf("plain parse err = %v, verbatim parse err = %v\ninput: %q", err, keptErr, s)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// (Compared as bytes: Equal is not reflexive on duplicate attributes.)
		if a, b := MarshalString(reparse(t, kept)), MarshalString(reparse(t, root)); a != b {
			t.Fatalf("verbatim parse changed the document\ninput: %q\n got %s\nwant %s", s, a, b)
		}
		out := MarshalString(root)
		again, err := ParseString(out)
		if err != nil {
			t.Fatalf("accepted document failed to reparse after marshal\ninput: %q\nmarshalled: %q\nerr: %v", s, out, err)
		}
		if again.Name != root.Name {
			t.Fatalf("root identity changed across round trip: %v → %v", root.Name, again.Name)
		}
		if strings.TrimSpace(again.Text()) != strings.TrimSpace(root.Text()) {
			t.Fatalf("text content changed across round trip: %q → %q", root.Text(), again.Text())
		}
	})
}

func reparse(t *testing.T, e *Element) *Element {
	t.Helper()
	again, err := ParseBytes(Marshal(e))
	if err != nil {
		t.Fatalf("marshalled document does not parse: %v\n%s", err, Marshal(e))
	}
	return again
}
