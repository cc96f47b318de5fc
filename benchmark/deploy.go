package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"dais/internal/client"
	"dais/internal/resil"
	"dais/internal/soap"
	"dais/internal/xmlutil"
)

// A deployment is one workload's system under test, loaded and ready:
// which servers exist and what the generated operations address. The
// same code deploys onto spawned processes (the measured run) and onto
// in-process hosts (the traced run); only the host differs.

// host starts servers. daisd returns the base URL of a fresh, empty
// data-service daemon; daisgw the base URL of a gateway over the given
// backend SQL endpoints with one alias naming every member.
type host interface {
	daisd(ctx context.Context, label string) (string, error)
	daisgw(ctx context.Context, label string, backends []string, alias string) (string, error)
}

// gatewayAlias is the cluster name gateway_mix scatters over.
const gatewayAlias = "urn:dais:cluster:data"

type deployment struct {
	sql      []client.ResourceRef // SQL resources as the operations address them
	xml      client.ResourceRef   // XML collection (point_mix)
	alias    client.ResourceRef   // scatter alias (gateway_mix)
	backends []client.ResourceRef // gateway_mix: the members, dialled directly
	bases    []string             // server base URLs, front door first
}

// newClient builds the consumer the benchmark drives: the public typed
// client with no retry or breaker policy and no shared observer, so a
// shed, fault or timeout reaches the accounting exactly once.
func newClient() *client.Client { return newClientOver(nil) }

// newClientOver is newClient over a given HTTP client, with extra
// interceptors installed innermost (the traced run's seams).
func newClientOver(hc *http.Client, ics ...soap.Interceptor) *client.Client {
	return client.NewResilient(hc, nil, resil.ClientConfig{}, ics...)
}

// deploy starts and loads the servers of one workload. All data goes
// over the wire through the public client API.
func deploy(ctx context.Context, h host, c *client.Client, workload string, sz sizes) (*deployment, error) {
	d := &deployment{}
	nodes := 1
	if workload == wlGateway {
		nodes = 2
	}
	for i := 0; i < nodes; i++ {
		base, err := h.daisd(ctx, fmt.Sprintf("daisd%d", i))
		if err != nil {
			return nil, err
		}
		sqlRef, err := firstResource(ctx, c, base+"/sql")
		if err != nil {
			return nil, err
		}
		d.bases = append(d.bases, base)
		d.sql = append(d.sql, sqlRef)
		switch workload {
		case wlPointMix:
			if d.xml, err = firstResource(ctx, c, base+"/xml"); err != nil {
				return nil, err
			}
			if err := loadBooks(ctx, c, d.xml, sz.Books); err != nil {
				return nil, err
			}
			err = loadPointTables(ctx, c, sqlRef, sz)
		case wlGateway:
			err = loadPointTables(ctx, c, sqlRef, sz)
		case wlBulk:
			err = loadTable(ctx, c, sqlRef, "data", pointDDL("data"), sz.BulkRows, pointRow)
		case wlScanAgg:
			err = loadFacts(ctx, c, sqlRef, sz.FactRows)
		case wlWriteBeside:
			err = loadFacts(ctx, c, sqlRef, sz.WriteRows)
		}
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", workload, err)
		}
	}
	if workload != wlGateway {
		return d, nil
	}

	// The gateway fronts both nodes' SQL resources; their names were
	// read from the nodes above and one alias names both members.
	d.backends = d.sql
	var members, endpoints []string
	for _, ref := range d.backends {
		members = append(members, ref.AbstractName+"@"+ref.Address)
		endpoints = append(endpoints, ref.Address)
	}
	gw, err := h.daisgw(ctx, "daisgw", endpoints, gatewayAlias+"="+strings.Join(members, ","))
	if err != nil {
		return nil, err
	}
	d.bases = append([]string{gw}, d.bases...)
	d.sql = nil
	for _, ref := range d.backends {
		d.sql = append(d.sql, client.Ref(gw, ref.AbstractName))
	}
	d.alias = client.Ref(gw, gatewayAlias)
	return d, nil
}

func firstResource(ctx context.Context, c *client.Client, address string) (client.ResourceRef, error) {
	names, err := c.GetResourceList(ctx, address)
	if err != nil {
		return client.ResourceRef{}, fmt.Errorf("GetResourceList %s: %w", address, err)
	}
	if len(names) == 0 {
		return client.ResourceRef{}, fmt.Errorf("GetResourceList %s: no resources", address)
	}
	return client.Ref(address, names[0]), nil
}

func pointDDL(table string) []string {
	return []string{
		fmt.Sprintf(`CREATE TABLE %s (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE)`, table),
		fmt.Sprintf(`CREATE ORDERED INDEX %s_id_ord ON %s (id)`, table, table),
	}
}

func loadPointTables(ctx context.Context, c *client.Client, ref client.ResourceRef, sz sizes) error {
	for t := 0; t < sz.PointTables; t++ {
		name := fmt.Sprintf("data_%d", t)
		if err := loadTable(ctx, c, ref, name, pointDDL(name), sz.PointRows, pointRow); err != nil {
			return err
		}
	}
	return nil
}

func loadFacts(ctx context.Context, c *client.Client, ref client.ResourceRef, rows int) error {
	ddl := []string{`CREATE TABLE facts (id INTEGER PRIMARY KEY, grp INTEGER, payload VARCHAR(64), num DOUBLE)`}
	if err := loadTable(ctx, c, ref, "facts", ddl, rows, factRow); err != nil {
		return err
	}
	ddl = []string{`CREATE TABLE dims (id INTEGER PRIMARY KEY, name VARCHAR(32))`}
	return loadTable(ctx, c, ref, "dims", ddl, factGroups, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, 'dim-%02d')", i, i)
	})
}

// loadBatch is the rows per INSERT statement during loading.
const loadBatch = 1000

// loadTable creates a table and fills it with multi-row INSERTs.
func loadTable(ctx context.Context, c *client.Client, ref client.ResourceRef, table string, ddl []string,
	rows int, row func(*strings.Builder, int)) error {
	for _, stmt := range ddl {
		if _, err := c.SQLExecute(ctx, ref, stmt, nil, ""); err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
	}
	var sb strings.Builder
	for lo := 0; lo < rows; lo += loadBatch {
		hi := min(lo+loadBatch, rows)
		sb.Reset()
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			row(&sb, i)
		}
		res, err := c.SQLExecute(ctx, ref, sb.String(), nil, "")
		if err != nil {
			return fmt.Errorf("insert into %s rows %d..%d: %w", table, lo, hi-1, err)
		}
		if res.UpdateCount != hi-lo {
			return fmt.Errorf("insert into %s rows %d..%d: update count %d", table, lo, hi-1, res.UpdateCount)
		}
	}
	return nil
}

// loadBooks makes the collection hold exactly the n generated books:
// a daisd starts with a few demonstration documents, which would
// otherwise show up in every XPath count.
func loadBooks(ctx context.Context, c *client.Client, ref client.ResourceRef, n int) error {
	stale, err := c.ListDocuments(ctx, ref)
	if err != nil {
		return fmt.Errorf("list documents: %w", err)
	}
	for _, name := range stale {
		if err := c.RemoveDocument(ctx, ref, name); err != nil {
			return fmt.Errorf("remove %s: %w", name, err)
		}
	}
	for i := 0; i < n; i++ {
		doc, err := xmlutil.ParseString(bookDoc(i))
		if err != nil {
			return err
		}
		if err := c.AddDocument(ctx, ref, fmt.Sprintf("bench-book-%02d.xml", i), doc); err != nil {
			return fmt.Errorf("add book %d: %w", i, err)
		}
	}
	return nil
}
