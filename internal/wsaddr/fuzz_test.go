package wsaddr

import (
	"testing"

	"dais/internal/xmlutil"
)

// FuzzParseEPR: any element either is no EPR or yields one that, rendered
// with Element, marshalled and parsed again, is the same EPR.
func FuzzParseEPR(f *testing.F) {
	f.Add(`<dai:DataResourceAddress xmlns:dai="http://www.ggf.org/namespaces/2005/12/WS-DAI" xmlns:wsa="http://www.w3.org/2005/08/addressing"><wsa:Address>http://svc/sql</wsa:Address><wsa:ReferenceParameters><dai:DataResourceAbstractName>urn:dais:r1</dai:DataResourceAbstractName></wsa:ReferenceParameters></dai:DataResourceAddress>`)
	f.Add(`<wsa:ReplyTo xmlns:wsa="http://www.w3.org/2005/08/addressing"><wsa:Address>http://www.w3.org/2005/08/addressing/anonymous</wsa:Address><wsa:Metadata><m:PortType xmlns:m="urn:m" k="v">x &amp; y</m:PortType></wsa:Metadata></wsa:ReplyTo>`)
	f.Add(`<e xmlns:wsa="http://www.w3.org/2005/08/addressing"><wsa:ReferenceParameters><wsa:Address>inner</wsa:Address></wsa:ReferenceParameters><wsa:Address> spaced  </wsa:Address></e>`)
	f.Add(`<e xmlns="http://www.w3.org/2005/08/addressing"><Address><![CDATA[a<b]]></Address><ReferenceParameters>text<p/></ReferenceParameters></e>`)
	f.Fuzz(func(t *testing.T, doc string) {
		el, err := xmlutil.ParseString(doc)
		if err != nil {
			return
		}
		epr, err := ParseEPR(el)
		if err != nil {
			return
		}
		out := xmlutil.MarshalString(epr.Element(el.Name.Space, el.Name.Local))
		back, err := xmlutil.ParseString(out)
		if err != nil {
			t.Fatalf("marshalled EPR does not parse: %v\ninput: %q\nmarshalled: %q", err, doc, out)
		}
		again, err := ParseEPR(back)
		if err != nil {
			t.Fatalf("marshalled EPR is no EPR: %v\nmarshalled: %q", err, out)
		}
		if again.Address != epr.Address {
			t.Fatalf("address %q, after the round trip %q\nmarshalled: %q", epr.Address, again.Address, out)
		}
		for _, part := range []struct {
			name      string
			was, back []*xmlutil.Element
		}{
			{"reference parameters", epr.ReferenceParameters, again.ReferenceParameters},
			{"metadata", epr.Metadata, again.Metadata},
		} {
			if len(part.was) != len(part.back) {
				t.Fatalf("%d %s, after the round trip %d\nmarshalled: %q", len(part.was), part.name, len(part.back), out)
			}
			for i := range part.was {
				if a, b := xmlutil.MarshalString(part.was[i]), xmlutil.MarshalString(part.back[i]); a != b {
					t.Fatalf("%s %d: %s, after the round trip %s", part.name, i, a, b)
				}
			}
		}
	})
}
