// Package cim renders relational catalog metadata in a CIM-style XML
// dialect.
//
// The paper (§2.3, §4.2) records that the DAIS-WG worked with the DMTF
// Database Working Group to extend the Common Information Model with
// relational metadata from the SQL standard, and that WS-DAIR's
// CIMDescription property is "a content holder for an XML rendering of
// CIM for relational database". The DMTF rendering was unfinished at
// publication time, so this package provides a faithful CIM_* -style
// rendering (class/instance/property structure mirroring CIM-XML) over
// the sqlengine catalog.
package cim

import (
	"fmt"

	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// NS is the namespace of the rendering.
const NS = "http://schemas.dmtf.org/wbem/wscim/1/cim-schema/2/database"

func init() { xmlutil.RegisterVocabulary(NS, "Instance", "Property", "class", "name") }

// Describe renders the database catalog as a CIM instance tree:
// CIM_CommonDatabase with CIM_DatabaseSchema children containing
// CIM_Table, CIM_Column and CIM_Index instances.
func Describe(db *sqlengine.Database) *xmlutil.Element {
	root := instance(NS, "CIM_CommonDatabase")
	prop(root, "Name", db.Name())
	prop(root, "CreationClassName", "CIM_CommonDatabase")

	schema := root.Add(NS, "Instance")
	schema.SetAttr("", "class", "CIM_DatabaseSchema")
	prop(schema, "Name", "public")

	indexByTable := map[string][]sqlengine.IndexInfo{}
	for _, ix := range db.Indexes() {
		indexByTable[ix.Table] = append(indexByTable[ix.Table], ix)
	}

	for _, tname := range db.TableNames() {
		cols, err := db.TableSchema(tname)
		if err != nil {
			continue // table dropped concurrently; skip
		}
		te := schema.Add(NS, "Instance")
		te.SetAttr("", "class", "CIM_Table")
		prop(te, "Name", tname)
		if n, err := db.TableRowCount(tname); err == nil {
			prop(te, "RowCount", fmt.Sprintf("%d", n))
		}
		for i, c := range cols {
			ce := te.Add(NS, "Instance")
			ce.SetAttr("", "class", "CIM_Column")
			prop(ce, "Name", c.Name)
			prop(ce, "OrdinalPosition", fmt.Sprintf("%d", i+1))
			prop(ce, "DataType", c.Type.String())
			prop(ce, "IsNullable", boolStr(!c.NotNull))
			if c.PrimaryKey {
				prop(ce, "KeyType", "PRIMARY")
			} else if c.Unique {
				prop(ce, "KeyType", "UNIQUE")
			}
		}
		for _, ix := range indexByTable[tname] {
			ie := te.Add(NS, "Instance")
			ie.SetAttr("", "class", "CIM_Index")
			prop(ie, "Name", ix.Name)
			prop(ie, "Column", ix.Column)
			prop(ie, "IsUnique", boolStr(ix.Unique))
		}
	}
	for _, vname := range db.ViewNames() {
		ve := schema.Add(NS, "Instance")
		ve.SetAttr("", "class", "CIM_View")
		prop(ve, "Name", vname)
	}
	return root
}

// TableDescription describes one result-set shape (used for derived
// data resources whose "schema" is the query's projection).
func TableDescription(name string, cols []sqlengine.ResultColumn) *xmlutil.Element {
	te := instance(NS, "CIM_Table")
	prop(te, "Name", name)
	for i, c := range cols {
		ce := te.Add(NS, "Instance")
		ce.SetAttr("", "class", "CIM_Column")
		prop(ce, "Name", c.Name)
		prop(ce, "OrdinalPosition", fmt.Sprintf("%d", i+1))
		prop(ce, "DataType", c.Type.String())
		if c.Table != "" {
			prop(ce, "SourceTable", c.Table)
		}
	}
	return te
}

// Summary extracts a compact overview from a Describe rendering:
// table name -> column count. It demonstrates that the rendering is
// machine-consumable, and backs tests.
func Summary(desc *xmlutil.Element) map[string]int {
	out := map[string]int{}
	var walk func(e *xmlutil.Element)
	walk = func(e *xmlutil.Element) {
		if e.AttrValue("", "class") == "CIM_Table" {
			name := ""
			cols := 0
			for _, c := range e.ChildElements() {
				switch {
				case c.Name.Local == "Property" && c.AttrValue("", "name") == "Name":
					name = c.Text()
				case c.Name.Local == "Instance" && c.AttrValue("", "class") == "CIM_Column":
					cols++
				}
			}
			if name != "" {
				out[name] = cols
			}
		}
		for _, c := range e.ChildElements() {
			walk(c)
		}
	}
	walk(desc)
	return out
}

func instance(ns, class string) *xmlutil.Element {
	e := xmlutil.NewElement(ns, "Instance")
	e.SetAttr("", "class", class)
	return e
}

func prop(parent *xmlutil.Element, name, value string) {
	p := parent.Add(NS, "Property")
	p.SetAttr("", "name", name)
	p.SetText(value)
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
