package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/daif"
	"dais/internal/dair"
	"dais/internal/daix"
	"dais/internal/filestore"
	"dais/internal/ops"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/wsrf"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// TestPropertiesByNameMatchWholeDocument holds the by-name property
// path to the whole-document builder, for every kind of resource the
// realisations register — dair SQL / response / rowset, daix collection
// / sequence, daif files / staged files: GetResourceProperty and
// GetMultipleResourceProperties return, byte for byte, what FindAll
// finds in GetResourcePropertyDocument, for every name in the document,
// both lifetime properties (termination nil and set), a name nobody
// has, and each of them without a namespace — before and after
// SetResourceProperties rewrites the configurable ones and DDL changes
// the CIM rendering. Then the same reads run from several goroutines at
// once, through the registries and over the wire: the by-name path
// hands out the cached static elements themselves, and under -race a
// single write to one (AppendChild's parent pointer, say) fails the
// test.
func TestPropertiesByNameMatchWholeDocument(t *testing.T) {
	ctx := context.Background()
	c := client.New(nil)
	serve := func(name string, res core.DataResource, maps []core.ConfigurationMapEntry) (*service.Endpoint, client.ResourceRef) {
		svc := core.NewDataService(name, core.WithConfigurationMap(maps...))
		ep := service.NewEndpoint(svc, service.WithWSRF())
		ep.Register(res)
		startEndpoint(t, ep)
		t.Cleanup(ep.WSRF().Close)
		return ep, client.Ref(svc.Address(), res.AbstractName())
	}

	eng := sqlengine.New("hr")
	eng.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64) NOT NULL, salary DOUBLE)`)
	eng.MustExec(`INSERT INTO emp VALUES (1, 'ann', 120000), (2, 'bob', 95000), (3, 'carol', 87000)`)
	sqlEp, sqlRef := serve("relational", dair.NewSQLDataResource(eng), dair.StandardConfigurationMaps())
	respRef, err := c.SQLExecuteFactory(ctx, sqlRef, `SELECT id, name FROM emp`, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsetRef, err := c.SQLRowsetFactory(ctx, respRef, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := xmldb.NewStore("library")
	for i, doc := range []string{`<book id="1"><title>Alpha</title></book>`, `<book id="2"><title>Beta</title></book>`} {
		e, err := xmlutil.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddDocument("", fmt.Sprintf("b%d.xml", i), e); err != nil {
			t.Fatal(err)
		}
	}
	xmlEp, xmlRef := serve("xml", daix.NewXMLCollectionResource(store, ""), daix.StandardConfigurationMaps())
	seqRef, err := c.XPathExecuteFactory(ctx, xmlRef, "//book", nil)
	if err != nil {
		t.Fatal(err)
	}

	files := filestore.NewStore("grid")
	if err := files.Write("runs/a.dat", []byte("run-a")); err != nil {
		t.Fatal(err)
	}
	fileEp, fileRef := serve("files", daif.NewFileDataResource(files), daif.StandardConfigurationMaps())
	stagedRef, err := c.FileSelectFactory(ctx, fileRef, "runs/*", nil)
	if err != nil {
		t.Fatal(err)
	}

	// One of the derived resources has a termination time; the others
	// render TerminationTime nil.
	tt := time.Now().Add(time.Hour)
	if _, err := c.SetTerminationTime(ctx, rowsetRef, &tt); err != nil {
		t.Fatal(err)
	}

	endpoints := []*service.Endpoint{sqlEp, xmlEp, fileEp}
	if n := len(sqlEp.WSRF().IDs()) + len(xmlEp.WSRF().IDs()) + len(fileEp.WSRF().IDs()); n != 7 {
		t.Fatalf("%d resources registered, want 7 (SQL, response, rowset, collection, sequence, files, staged)", n)
	}

	// check compares the two paths for every resource and every name. It
	// reports through t.Error only, so goroutines may run it.
	check := func() {
		for _, ep := range endpoints {
			reg := ep.WSRF()
			for _, id := range reg.IDs() {
				doc, err := reg.GetResourcePropertyDocument(id)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					continue
				}
				names := []xmlutil.Name{{Space: wsrf.NSRL, Local: "TerminationTime"},
					{Space: core.NSDAI, Local: "NoSuchProperty"}, {Space: core.NSDAI, Local: "TerminationTime"}}
				seen := map[xmlutil.Name]bool{{Space: wsrf.NSRL, Local: "CurrentTime"}: true}
				for _, p := range doc.ChildElements() {
					if !seen[p.Name] {
						seen[p.Name] = true
						names = append(names, p.Name, xmlutil.Name{Local: p.Name.Local})
					}
				}
				var all []*xmlutil.Element
				for _, n := range names {
					want := doc.FindAll(n.Space, n.Local)
					all = append(all, want...)
					got, err := reg.GetResourceProperty(id, n.Space, n.Local)
					if err != nil {
						t.Errorf("%s %v: %v", id, n, err)
						continue
					}
					sameProperties(t, fmt.Sprintf("%s %v", id, n), got, want)
				}
				got, err := reg.GetMultipleResourceProperties(id, names)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					continue
				}
				sameProperties(t, id+" (all names at once)", got, all)

				// CurrentTime is the registry's clock at the read: one
				// element, a time no earlier than the document's.
				cur, err := reg.GetResourceProperty(id, wsrf.NSRL, "CurrentTime")
				if err != nil || len(cur) != 1 {
					t.Errorf("%s CurrentTime: %v, %v", id, cur, err)
					continue
				}
				at, err := time.Parse(time.RFC3339Nano, cur[0].Text())
				docAt, _ := time.Parse(time.RFC3339Nano, doc.FindText(wsrf.NSRL, "CurrentTime"))
				if err != nil || at.Before(docAt) || cur[0].Name != (xmlutil.Name{Space: wsrf.NSRL, Local: "CurrentTime"}) {
					t.Errorf("%s CurrentTime = %s (%v), document has %s", id, xmlutil.Marshal(cur[0]), err, docAt)
				}
			}
		}
	}
	check()

	cimBefore, err := sqlEp.WSRF().GetResourceProperty(sqlRef.AbstractName, ops.NSDAIR, "CIMDescription")
	if err != nil || len(cimBefore) != 1 {
		t.Fatalf("CIMDescription: %v, %v", cimBefore, err)
	}
	if err := c.SetResourceProperties(ctx, sqlRef, map[string]string{
		"DataResourceDescription": "frozen for audit", "Writeable": "true", "Sensitivity": "Sensitive",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetResourceProperties(ctx, xmlRef, map[string]string{"Readable": "false"}); err != nil {
		t.Fatal(err)
	}
	eng.MustExec(`CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR(32))`)
	check()
	cimAfter, _ := sqlEp.WSRF().GetResourceProperty(sqlRef.AbstractName, ops.NSDAIR, "CIMDescription")
	if len(cimAfter) != 1 || xmlutil.MarshalString(cimAfter[0]) == xmlutil.MarshalString(cimBefore[0]) {
		t.Fatal("CIMDescription by name did not follow the DDL")
	}
	if desc, _ := c.GetResourceProperty(ctx, sqlRef, "DataResourceDescription"); len(desc) != 1 || desc[0].Text() != "frozen for audit" {
		t.Fatalf("DataResourceDescription by name after SetResourceProperties = %v", desc)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			check()
		}()
		go func() { // the handlers link the shared elements into replies
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, ref := range []client.ResourceRef{sqlRef, respRef, rowsetRef, xmlRef, seqRef, fileRef, stagedRef} {
					props, err := c.GetMultipleResourceProperties(ctx, ref,
						[]string{"DataResourceManagement", "DatasetMap", "ConfigurationMap", "Readable", "wsrl:TerminationTime"})
					if err != nil || len(props) < 4 {
						t.Errorf("%s: %d properties, %v", ref.AbstractName, len(props), err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// sameProperties compares two property lists as marshalled bytes.
func sameProperties(t *testing.T, what string, got, want []*xmlutil.Element) {
	if len(got) != len(want) {
		t.Errorf("%s: %d properties by name, %d in the document", what, len(got), len(want))
		return
	}
	for i := range want {
		if g, w := xmlutil.MarshalString(got[i]), xmlutil.MarshalString(want[i]); g != w {
			t.Errorf("%s: by name %s\n in the document %s", what, g, w)
		}
	}
}
