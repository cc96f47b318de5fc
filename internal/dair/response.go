package dair

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"dais/internal/cim"
	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// ResponseItemKind classifies the entries of an SQL response: WS-DAIR's
// ResponseAccess interface exposes rowsets, update counts, output
// parameters and a return value (Fig. 6).
type ResponseItemKind int

// Response item kinds.
const (
	ItemRowset ResponseItemKind = iota
	ItemUpdateCount
	ItemReturnValue
	ItemOutputParameter
)

// ResponseItem is one entry of an SQL response.
type ResponseItem struct {
	Kind        ResponseItemKind
	Rowset      *sqlengine.ResultSet // ItemRowset
	UpdateCount int                  // ItemUpdateCount
	Value       sqlengine.Value      // ItemReturnValue / ItemOutputParameter
	Name        string               // ItemOutputParameter
}

// SQLResponseData is the in-memory outcome of executing a SQL
// expression: the ordered response items plus the SQL communication
// area. It is both the payload of a direct SQLExecute response and the
// content of a derived SQLResponse data resource.
type SQLResponseData struct {
	Items []ResponseItem
	CA    sqlengine.SQLCA
}

func newResponseData(res *sqlengine.Result) *SQLResponseData {
	d := &SQLResponseData{CA: res.CA}
	if res.Set != nil {
		d.Items = append(d.Items, ResponseItem{Kind: ItemRowset, Rowset: res.Set})
	} else if res.UpdateCount >= 0 {
		d.Items = append(d.Items, ResponseItem{Kind: ItemUpdateCount, UpdateCount: res.UpdateCount})
	}
	return d
}

// FirstRowset returns the first rowset item, or nil.
func (d *SQLResponseData) FirstRowset() *sqlengine.ResultSet {
	for _, it := range d.Items {
		if it.Kind == ItemRowset {
			return it.Rowset
		}
	}
	return nil
}

// UpdateCount returns the first update count, or -1.
func (d *SQLResponseData) UpdateCount() int {
	for _, it := range d.Items {
		if it.Kind == ItemUpdateCount {
			return it.UpdateCount
		}
	}
	return -1
}

// CommunicationAreaElement renders the SQLCommunicationArea element
// included in WS-DAIR responses (paper Fig. 2: "the SQL realisation
// extends the message pattern to also include information from the SQL
// communication area").
func (d *SQLResponseData) CommunicationAreaElement() *xmlutil.Element {
	e := xmlutil.NewElement(NSDAIR, "SQLCommunicationArea")
	e.AddText(NSDAIR, "SQLState", d.CA.SQLState)
	e.AddText(NSDAIR, "SQLCode", fmt.Sprintf("%d", d.CA.SQLCode))
	if d.CA.Message != "" {
		e.AddText(NSDAIR, "SQLMessage", d.CA.Message)
	}
	e.AddText(NSDAIR, "UpdateCount", fmt.Sprintf("%d", d.CA.UpdateCount))
	e.AddText(NSDAIR, "RowsFetched", fmt.Sprintf("%d", d.CA.RowsFetched))
	return e
}

// ParseCommunicationArea decodes a rendered SQLCommunicationArea. Its
// SQLCode, UpdateCount and RowsFetched must each hold a decimal integer:
// read as 0, a missing or malformed SQLCode would pass for success.
func ParseCommunicationArea(e *xmlutil.Element) (sqlengine.SQLCA, error) {
	var ca sqlengine.SQLCA
	if e == nil || e.Name.Local != "SQLCommunicationArea" {
		return ca, fmt.Errorf("dair: not an SQLCommunicationArea element")
	}
	ca.SQLState = e.FindText(NSDAIR, "SQLState")
	ca.Message = e.FindText(NSDAIR, "SQLMessage")
	for _, f := range []struct {
		name string
		dst  *int
	}{{"SQLCode", &ca.SQLCode}, {"UpdateCount", &ca.UpdateCount}, {"RowsFetched", &ca.RowsFetched}} {
		text := e.FindText(NSDAIR, f.name)
		n, err := strconv.Atoi(strings.TrimSpace(text))
		if err != nil {
			return sqlengine.SQLCA{}, fmt.Errorf("dair: SQLCommunicationArea %s %q is not an integer", f.name, text)
		}
		*f.dst = n
	}
	return ca, nil
}

// SQLResponseResource is a derived, service-managed data resource
// created by SQLExecuteFactory: "a service managed data resource ...
// populated by the response of a SQL query" (paper §4.3). Its
// ResponseAccess operations expose the response items.
//
// The resource honours the WS-DAI Sensitivity property (§4.2): an
// Insensitive resource holds a snapshot taken at creation; a Sensitive
// one re-evaluates the originating expression against the parent on
// every access, so "changes in the parent data resource will be
// reflected in the derived data".
type SQLResponseResource struct {
	core.BaseResource
	mu      sync.RWMutex
	data    *SQLResponseData
	formats *rowset.Registry
	// refresh re-executes the originating expression; non-nil only for
	// Sensitive resources.
	refresh func() (*SQLResponseData, error)
	// stream backs a streaming resource: the response payload is still
	// being produced when the resource is registered, and ResponseAccess
	// operations materialise it (blocking until production completes)
	// only when first needed. Streaming rowset resources are carved off
	// the stream's buffer without materialising here at all.
	stream *streamHandle
}

// NewSQLResponseResource wraps response data as a derived resource.
func NewSQLResponseResource(parent string, data *SQLResponseData, cfg core.Configuration) *SQLResponseResource {
	return &SQLResponseResource{
		BaseResource: core.BaseResource{
			Name:   core.NewAbstractName("sqlresponse"),
			Parent: parent,
			Mgmt:   core.ServiceManaged,
			Config: cfg,
		},
		data:    data,
		formats: rowset.NewRegistry(),
	}
}

// newStreamingResponseResource wraps a still-producing stream as a
// derived resource. The resource owns the handle's buffer reference.
func newStreamingResponseResource(parent string, h *streamHandle, cfg core.Configuration) *SQLResponseResource {
	return &SQLResponseResource{
		BaseResource: core.BaseResource{
			Name:   core.NewAbstractName("sqlresponse"),
			Parent: parent,
			Mgmt:   core.ServiceManaged,
			Config: cfg,
		},
		formats: rowset.NewRegistry(),
		stream:  h,
	}
}

// currentData returns the response payload, re-evaluating it for
// Sensitive resources and materialising (once) for streaming ones.
func (r *SQLResponseResource) currentData() (*SQLResponseData, error) {
	r.mu.RLock()
	refresh, data, stream := r.refresh, r.data, r.stream
	r.mu.RUnlock()
	if refresh != nil {
		return refresh()
	}
	if data == nil && stream != nil {
		// Production runs under its own background context and always
		// terminates (the buffer drains the source unconditionally), so
		// this wait is bounded by the query itself.
		d, err := stream.responseData(context.Background())
		if err != nil {
			return d, err
		}
		r.mu.Lock()
		if r.data == nil {
			r.data = d
		}
		d = r.data
		r.mu.Unlock()
		return d, nil
	}
	return data, nil
}

// setRefresh installs the Sensitive re-evaluation hook.
func (r *SQLResponseResource) setRefresh(f func() (*SQLResponseData, error)) {
	r.mu.Lock()
	r.refresh = f
	r.mu.Unlock()
}

// Data exposes the response payload (the snapshot for Insensitive
// resources, a fresh evaluation for Sensitive ones).
func (r *SQLResponseResource) Data() *SQLResponseData {
	d, err := r.currentData()
	if err != nil {
		return &SQLResponseData{}
	}
	return d
}

// QueryLanguages implements core.DataResource: responses are not
// further queryable.
func (r *SQLResponseResource) QueryLanguages() []string { return nil }

// DatasetFormats implements core.DataResource.
func (r *SQLResponseResource) DatasetFormats() []string { return r.formats.URIs() }

// GenericQuery implements core.DataResource; responses reject it.
func (r *SQLResponseResource) GenericQuery(ctx context.Context, lang, expr string) (*xmlutil.Element, error) {
	return nil, &core.InvalidLanguageFault{Language: lang}
}

// ExtendedProperties implements core.DataResource with the
// SQLResponseDescription extensions of Fig. 4: item counts by kind.
func (r *SQLResponseResource) ExtendedProperties() []*xmlutil.Element {
	data, err := r.currentData()
	if err != nil {
		data = &SQLResponseData{}
	}
	counts := map[ResponseItemKind]int{}
	for _, it := range data.Items {
		counts[it.Kind]++
	}
	mk := func(name string, v int) *xmlutil.Element {
		e := xmlutil.NewElement(NSDAIR, name)
		e.SetText(fmt.Sprintf("%d", v))
		return e
	}
	return []*xmlutil.Element{
		mk("NumberOfSQLRowsets", counts[ItemRowset]),
		mk("NumberOfSQLUpdateCounts", counts[ItemUpdateCount]),
		mk("NumberOfSQLOutputParameters", counts[ItemOutputParameter]),
		mk("NumberOfSQLReturnValues", counts[ItemReturnValue]),
	}
}

// Release implements core.DataResource by dropping the payload and
// detaching from the parent. For a streaming resource this also drops
// the buffer reference, which cancels a still-running producer once
// every derived rowset resource has released its own reference.
func (r *SQLResponseResource) Release() error {
	r.mu.Lock()
	r.data = &SQLResponseData{}
	r.refresh = nil
	stream := r.stream
	r.stream = nil
	r.mu.Unlock()
	if stream != nil {
		stream.buf.Release()
	}
	return nil
}

// GetSQLRowset implements ResponseAccess.GetSQLRowset for the index-th
// rowset item (0-based).
func (r *SQLResponseResource) GetSQLRowset(index int) (*sqlengine.ResultSet, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	data, err := r.currentData()
	if err != nil {
		return nil, err
	}
	i := 0
	for _, it := range data.Items {
		if it.Kind == ItemRowset {
			if i == index {
				return it.Rowset, nil
			}
			i++
		}
	}
	return nil, &core.InvalidExpressionFault{Detail: fmt.Sprintf("response has no rowset %d", index)}
}

// GetSQLUpdateCount implements ResponseAccess.GetSQLUpdateCount.
func (r *SQLResponseResource) GetSQLUpdateCount(index int) (int, error) {
	if err := core.CheckReadable(r); err != nil {
		return 0, err
	}
	data, err := r.currentData()
	if err != nil {
		return 0, err
	}
	i := 0
	for _, it := range data.Items {
		if it.Kind == ItemUpdateCount {
			if i == index {
				return it.UpdateCount, nil
			}
			i++
		}
	}
	return 0, &core.InvalidExpressionFault{Detail: fmt.Sprintf("response has no update count %d", index)}
}

// GetSQLReturnValue implements ResponseAccess.GetSQLReturnValue.
func (r *SQLResponseResource) GetSQLReturnValue() (sqlengine.Value, error) {
	if err := core.CheckReadable(r); err != nil {
		return sqlengine.Null, err
	}
	data, err := r.currentData()
	if err != nil {
		return sqlengine.Null, err
	}
	for _, it := range data.Items {
		if it.Kind == ItemReturnValue {
			return it.Value, nil
		}
	}
	return sqlengine.Null, &core.InvalidExpressionFault{Detail: "response has no return value"}
}

// GetSQLOutputParameter implements ResponseAccess.GetSQLOutputParameter.
func (r *SQLResponseResource) GetSQLOutputParameter(name string) (sqlengine.Value, error) {
	if err := core.CheckReadable(r); err != nil {
		return sqlengine.Null, err
	}
	data, err := r.currentData()
	if err != nil {
		return sqlengine.Null, err
	}
	for _, it := range data.Items {
		if it.Kind == ItemOutputParameter && it.Name == name {
			return it.Value, nil
		}
	}
	return sqlengine.Null, &core.InvalidExpressionFault{Detail: fmt.Sprintf("response has no output parameter %q", name)}
}

// GetSQLCommunicationArea implements
// ResponseAccess.GetSQLCommunicationArea.
func (r *SQLResponseResource) GetSQLCommunicationArea() sqlengine.SQLCA {
	data, err := r.currentData()
	if err != nil {
		return sqlengine.SQLCA{SQLState: sqlengine.StateGeneral, SQLCode: -1, Message: err.Error()}
	}
	return data.CA
}

// GetSQLResponseItem implements ResponseAccess.GetSQLResponseItem: the
// index-th item of any kind.
func (r *SQLResponseResource) GetSQLResponseItem(index int) (ResponseItem, error) {
	if err := core.CheckReadable(r); err != nil {
		return ResponseItem{}, err
	}
	data, err := r.currentData()
	if err != nil {
		return ResponseItem{}, err
	}
	if index < 0 || index >= len(data.Items) {
		return ResponseItem{}, &core.InvalidExpressionFault{Detail: fmt.Sprintf("response has no item %d", index)}
	}
	return data.Items[index], nil
}

// SQLRowsetResource is a derived, service-managed resource holding one
// rowset in a chosen dataset format — the target of
// ResponseFactory.SQLRowsetFactory and the subject of the RowsetAccess
// interface (paper Fig. 5's web row set data resource). Its rows are a
// rowset.Buffer — the producing buffer of a streamed response, or one
// holding rows copied from a response — and GetTuples pages are carved
// out of it (blocking while they overlap the unproduced tail, paging
// spilled rows back in) and encoded per request.
type SQLRowsetResource struct {
	core.BaseResource
	mu        sync.RWMutex
	buf       *rowset.Buffer // nil once released
	cols      []sqlengine.ResultColumn
	formatURI string
	formats   *rowset.Registry
}

// NewSQLRowsetResource wraps a buffer as a rowset resource in the given
// format (empty = SQLRowset default). The resource takes over one
// reference to buf, which Release drops; on a fault the reference stays
// the caller's.
func NewSQLRowsetResource(parent string, buf *rowset.Buffer, formatURI string, cfg core.Configuration) (*SQLRowsetResource, error) {
	reg := rowset.NewRegistry()
	if _, err := reg.Lookup(formatURI); err != nil {
		return nil, &core.InvalidDatasetFormatFault{Format: formatURI}
	}
	if formatURI == "" {
		formatURI = rowset.FormatSQLRowset
	}
	return &SQLRowsetResource{
		BaseResource: core.BaseResource{
			Name:   core.NewAbstractName("sqlrowset"),
			Parent: parent,
			Mgmt:   core.ServiceManaged,
			Config: cfg,
		},
		buf:       buf,
		cols:      buf.Columns(),
		formatURI: formatURI,
		formats:   reg,
	}, nil
}

// FormatURI returns the resource's dataset format.
func (r *SQLRowsetResource) FormatURI() string { return r.formatURI }

// FinalRowCount blocks until production finishes and returns the total
// row count; a released resource holds none.
func (r *SQLRowsetResource) FinalRowCount(ctx context.Context) (int, error) {
	r.mu.RLock()
	buf := r.buf
	r.mu.RUnlock()
	if buf == nil {
		return 0, nil
	}
	n, err := buf.FinalCount(ctx)
	if err != nil {
		return 0, execFault(err)
	}
	return n, nil
}

// QueryLanguages implements core.DataResource.
func (r *SQLRowsetResource) QueryLanguages() []string { return nil }

// DatasetFormats implements core.DataResource: only the chosen format.
func (r *SQLRowsetResource) DatasetFormats() []string { return []string{r.formatURI} }

// GenericQuery implements core.DataResource; rowsets reject it.
func (r *SQLRowsetResource) GenericQuery(ctx context.Context, lang, expr string) (*xmlutil.Element, error) {
	return nil, &core.InvalidLanguageFault{Language: lang}
}

// ExtendedProperties implements core.DataResource with the
// SQLRowsetDescription extensions: row count, format and the derived
// schema rendered via CIM. NumberOfRows is the final count: on a
// still-producing resource the read waits for production, and after a
// failed one it reports 0.
func (r *SQLRowsetResource) ExtendedProperties() []*xmlutil.Element {
	rows, _ := r.FinalRowCount(context.Background())
	n := xmlutil.NewElement(NSDAIR, "NumberOfRows")
	n.SetText(fmt.Sprintf("%d", rows))
	f := xmlutil.NewElement(NSDAIR, "RowsetFormat")
	f.SetText(r.formatURI)
	schema := xmlutil.NewElement(NSDAIR, "RowsetSchema")
	schema.AppendChild(cim.TableDescription("rowset", r.cols))
	return []*xmlutil.Element{n, f, schema}
}

// Release implements core.DataResource by dropping this resource's
// buffer reference; the last one to go stops a still-running producer.
func (r *SQLRowsetResource) Release() error {
	r.mu.Lock()
	buf := r.buf
	r.buf = nil
	r.mu.Unlock()
	if buf != nil {
		buf.Release()
	}
	return nil
}

// GetTuples implements RowsetAccess.GetTuples(StartPosition, Count):
// the requested page encoded in the resource's dataset format.
// StartPosition is 1-based, matching Fig. 5's message signature. A
// window overlapping the unproduced tail blocks (under ctx) until the
// rows exist.
func (r *SQLRowsetResource) GetTuples(ctx context.Context, startPosition, count int) ([]byte, error) {
	render, err := r.TuplesRenderer(ctx, startPosition, count)
	if err != nil {
		return nil, err
	}
	return render(nil), nil
}

// TuplesRenderer is GetTuples in two steps. It resolves the window to
// the buffer's pages that hold it, and every fault GetTuples can answer
// with is decided here; the function it returns then appends the page's
// encoding to a buffer of the caller's, any number of times, and cannot
// fail. The rows it reads are never written, so it stays valid after the
// resource is released. A service hands it to the reply
// (ops.WindowDatasetElement) and a window is rendered once, where it is
// sent from. A released resource answers an empty window.
func (r *SQLRowsetResource) TuplesRenderer(ctx context.Context, startPosition, count int) (func(dst []byte) []byte, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	codec, err := r.formats.Lookup(r.formatURI)
	if err != nil {
		return nil, &core.InvalidDatasetFormatFault{Format: r.formatURI}
	}
	r.mu.RLock()
	buf := r.buf
	r.mu.RUnlock()
	var pages [][][]sqlengine.Value
	if buf != nil {
		if pages, err = buf.Pages(ctx, startPosition, count); err != nil {
			return nil, execFault(err)
		}
	}
	return func(dst []byte) []byte { return codec.AppendWindow(dst, r.cols, pages...) }, nil
}
