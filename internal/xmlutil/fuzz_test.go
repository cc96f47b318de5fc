package xmlutil

import (
	"fmt"
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

// scanTextModel is ScanText a byte at a time.
func scanTextModel(data []byte, pos int) (end int, clean bool) {
	clean = true
	for ; pos < len(data); pos++ {
		switch data[pos] {
		case '<':
			return pos, clean
		case '&', '\r':
			clean = false
		}
	}
	return len(data), clean
}

// appendEscapedModel is AppendEscaped a byte at a time, as it was
// before it read words.
func appendEscapedModel(dst []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// cellKernelSeeds puts each byte the word-at-a-time kernels look for at
// each byte of a word and past the first ones, alone, after one of the
// others, and beside bytes that differ from it in the top bit only.
func cellKernelSeeds() []string {
	seeds := []string{"", "a", "]]>", "café ¼¦\u008d", "\xbc\xa6\x8d\xbe\xa2<", strings.Repeat("x", 47) + "&", strings.Repeat("y", 49) + "\r<"}
	for _, c := range []string{"<", "&", "\r", ">", `"`} {
		for i := 0; i <= 17; i++ {
			pad := strings.Repeat("p", i)
			seeds = append(seeds, pad+c+"tail<", pad+"&"+c+"<", pad+c, "\x80"+pad+c+"\x7f")
		}
	}
	return seeds
}

// FuzzScanText holds ScanText to its byte-loop model from every start
// offset, with the data at every alignment of its backing array.
func FuzzScanText(f *testing.F) {
	for _, s := range cellKernelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for shift := 0; shift < 8; shift++ {
			data := append(make([]byte, shift, shift+len(s)), s...)[shift:]
			for pos := 0; pos <= len(data); pos++ {
				end, clean := ScanText(data, pos)
				if wantEnd, wantClean := scanTextModel(data, pos); end != wantEnd || clean != wantClean {
					t.Fatalf("ScanText(%q, %d) = %d, %v; the byte loop says %d, %v", data, pos, end, clean, wantEnd, wantClean)
				}
			}
		}
	})
}

// FuzzAppendEscaped holds AppendEscaped to its byte-loop model, for text
// and attribute values, from every offset of the input.
func FuzzAppendEscaped(f *testing.F) {
	for _, s := range cellKernelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for from := 0; from <= len(s); from++ {
			for _, attr := range []bool{false, true} {
				got := AppendEscaped([]byte("x="), s[from:], attr)
				if want := appendEscapedModel([]byte("x="), s[from:], attr); string(got) != string(want) {
					t.Fatalf("AppendEscaped(%q, attr=%v) = %q; the byte loop says %q", s[from:], attr, got, want)
				}
			}
		}
	})
}

// What the kernel benchmarks compute goes here, so that it is computed.
var (
	kernelEnd int
	kernelOut []byte
)

// BenchmarkCellKernels times the word-at-a-time kernels against their
// byte loops on clean cells of a few lengths: one that no word fits, one
// word exactly, the benchmark's payload column, a long one. ScanText
// reads a cell followed by its end tag, as a decoder meets it.
func BenchmarkCellKernels(b *testing.B) {
	for _, n := range []int{3, 8, 29, 64} {
		cell := strings.Repeat("r", n)
		data := []byte(cell + "</ns0:c><ns0:c>")
		b.Run(fmt.Sprintf("ScanText/%d/words", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelEnd, _ = ScanText(data, 0)
			}
		})
		b.Run(fmt.Sprintf("ScanText/%d/bytes", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelEnd, _ = scanTextModel(data, 0)
			}
		})
		// Called through a function value, as the rowset encoders call
		// the escaping of a VARCHAR cell.
		dst := make([]byte, 0, 256)
		for _, k := range []struct {
			name string
			str  func(dst []byte, s string, attr bool) []byte
		}{{"words", AppendEscaped}, {"bytes", appendEscapedModel}} {
			b.Run(fmt.Sprintf("AppendEscaped/%d/%s", n, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernelOut = k.str(dst, cell, false)
				}
			})
		}
	}
}
