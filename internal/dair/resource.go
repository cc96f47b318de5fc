// Package dair implements the WS-DAIR relational realisation: the SQL
// data resource backed by the sqlengine substrate, the SQLAccess,
// SQLFactory, ResponseAccess, ResponseFactory and RowsetAccess
// interfaces of the specification's Fig. 6, the SQL communication area
// carried in every response, and the CIM-rendered relational metadata
// exposed through the SQLPropertyDocument.
package dair

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dais/internal/cim"
	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// NSDAIR is the WS-DAIR namespace.
const NSDAIR = "http://www.ggf.org/namespaces/2005/12/WS-DAIR"

func init() {
	xmlutil.RegisterVocabulary(NSDAIR, "SQLCommunicationArea", "SQLState", "SQLCode", "SQLMessage",
		"UpdateCount", "RowsFetched", "CIMDescription", "NumberOfTables", "PlanCache", "hits", "misses", "size",
		"NumberOfRows", "RowsetFormat", "RowsetSchema", "NumberOfSQLRowsets", "NumberOfSQLUpdateCounts",
		"NumberOfSQLOutputParameters", "NumberOfSQLReturnValues")
}

// LanguageSQL92 identifies SQL as a GenericQueryLanguage.
const LanguageSQL92 = "http://www.sqlstandards.org/SQL92"

// Wrapper is the §2.1 language-transparency strategy: "DAIS compliant
// services may implement thin or thick wrappers". A thin wrapper passes
// the expression straight to the underlying DBMS; a thick wrapper may
// "intercept, parse, translate or redirect" it first.
type Wrapper interface {
	// Prepare inspects (and possibly rewrites) a SQL expression before
	// it reaches the engine.
	Prepare(expression string) (string, error)
}

// ThinWrapper forwards expressions untouched.
type ThinWrapper struct{}

// Prepare implements Wrapper as the identity.
func (ThinWrapper) Prepare(expression string) (string, error) { return expression, nil }

// ThickWrapper parses and validates the expression with the engine's
// own parser before forwarding it, converting syntax errors into
// InvalidExpressionFaults at the service boundary instead of engine
// errors mid-execution.
type ThickWrapper struct{}

// Prepare implements Wrapper with a full parse/validate pass.
func (ThickWrapper) Prepare(expression string) (string, error) {
	if _, _, err := sqlengine.Parse(expression); err != nil {
		return "", &core.InvalidExpressionFault{Detail: err.Error()}
	}
	return expression, nil
}

// SQLDataResource is an externally managed relational data resource: a
// WS-DAIR wrapper around a database in the sqlengine substrate.
type SQLDataResource struct {
	core.BaseResource
	engine  *sqlengine.Engine
	formats *rowset.Registry
	wrapper Wrapper

	// bufCfg configures the buffer each streamed result is produced
	// into (WithStreamDelivery); the zero value keeps it in memory.
	bufCfg rowset.BufferConfig

	// txnMu guards the consumer-controlled transaction session.
	txnMu   sync.Mutex
	txnSess *sqlengine.Session
}

// ResourceOption configures a SQLDataResource.
type ResourceOption func(*SQLDataResource)

// WithWrapper selects the language-transparency strategy (default
// thin).
func WithWrapper(w Wrapper) ResourceOption {
	return func(r *SQLDataResource) { r.wrapper = w }
}

// WithConfiguration overrides the default configuration.
func WithConfiguration(c core.Configuration) ResourceOption {
	return func(r *SQLDataResource) { r.Config = c }
}

// NewSQLDataResource wraps an engine as an externally managed resource
// with a fresh abstract name.
func NewSQLDataResource(engine *sqlengine.Engine, opts ...ResourceOption) *SQLDataResource {
	r := &SQLDataResource{
		BaseResource: core.BaseResource{
			Name: core.NewAbstractName("sql"),
			Mgmt: core.ExternallyManaged,
			Config: core.Configuration{
				Description:           "relational data resource " + engine.Database().Name(),
				Readable:              true,
				Writeable:             true,
				TransactionInitiation: core.TransactionPerMessage,
				TransactionIsolation:  sqlengine.ReadCommitted.String(),
			},
		},
		engine:  engine,
		formats: rowset.NewRegistry(),
		wrapper: ThinWrapper{},
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Engine exposes the underlying engine (examples and benches).
func (r *SQLDataResource) Engine() *sqlengine.Engine { return r.engine }

// Formats exposes the dataset format registry.
func (r *SQLDataResource) Formats() *rowset.Registry { return r.formats }

// QueryLanguages implements core.DataResource.
func (r *SQLDataResource) QueryLanguages() []string { return []string{LanguageSQL92} }

// DatasetFormats implements core.DataResource.
func (r *SQLDataResource) DatasetFormats() []string { return r.formats.URIs() }

// GenericQuery implements the WS-DAI GenericQuery operation over SQL:
// the result is rendered as an SQLRowset element (queries) or an
// UpdateCount element (DML).
func (r *SQLDataResource) GenericQuery(ctx context.Context, languageURI, expression string) (*xmlutil.Element, error) {
	resp, err := r.SQLExecute(ctx, expression, nil)
	if err != nil {
		return nil, err
	}
	if rs := resp.FirstRowset(); rs != nil {
		return rowset.SQLRowsetElement(rs), nil
	}
	e := xmlutil.NewElement(NSDAIR, "UpdateCount")
	e.SetText(fmt.Sprintf("%d", resp.UpdateCount()))
	return e, nil
}

// ExtendedProperties implements core.DataResource with the WS-DAIR
// static extensions: the CIMDescription relational metadata rendering
// and engine-level facts.
func (r *SQLDataResource) ExtendedProperties() []*xmlutil.Element {
	return []*xmlutil.Element{r.cimDescription(), r.numberOfTables(), r.planCacheProperty()}
}

// ExtendedProperty implements core.PropertyProvider: CIMDescription
// describes every table of the database, and is rendered only when it
// is the property asked for.
func (r *SQLDataResource) ExtendedProperty(space, local string) []*xmlutil.Element {
	if space != "" && space != NSDAIR {
		return nil
	}
	switch local {
	case "CIMDescription":
		return []*xmlutil.Element{r.cimDescription()}
	case "NumberOfTables":
		return []*xmlutil.Element{r.numberOfTables()}
	case "PlanCache":
		return []*xmlutil.Element{r.planCacheProperty()}
	}
	return nil
}

func (r *SQLDataResource) cimDescription() *xmlutil.Element {
	e := xmlutil.NewElement(NSDAIR, "CIMDescription")
	e.AppendChild(cim.Describe(r.engine.Database()))
	return e
}

func (r *SQLDataResource) numberOfTables() *xmlutil.Element {
	return xmlutil.NewElement(NSDAIR, "NumberOfTables").SetText(fmt.Sprintf("%d", len(r.engine.Database().TableNames())))
}

func (r *SQLDataResource) planCacheProperty() *xmlutil.Element {
	stats := r.engine.PlanCacheStats()
	plans := xmlutil.NewElement(NSDAIR, "PlanCache")
	plans.SetAttr("", "hits", fmt.Sprintf("%d", stats.Hits))
	plans.SetAttr("", "misses", fmt.Sprintf("%d", stats.Misses))
	plans.SetAttr("", "size", fmt.Sprintf("%d", stats.Size))
	return plans
}

// SQLExecute implements the SQLAccess SQLExecute operation: it runs one
// SQL expression (with optional positional parameters) under the
// resource's transaction policy and captures the outcome — rowset or
// update count plus the SQL communication area — as an in-memory
// response.
func (r *SQLDataResource) SQLExecute(ctx context.Context, expression string, params []sqlengine.Value) (*SQLResponseData, error) {
	prepared, err := r.wrapper.Prepare(expression)
	if err != nil {
		return nil, err
	}
	if err := r.authorize(prepared); err != nil {
		return nil, err
	}
	var res *sqlengine.Result
	switch r.Config.TransactionInitiation {
	case core.TransactionConsumerControlled:
		// One sticky session carries the consumer's BEGIN/COMMIT
		// statements across messages.
		r.txnMu.Lock()
		if r.txnSess == nil {
			r.txnSess = r.engine.NewSession()
			if iso, perr := sqlengine.ParseIsolationLevel(r.Config.TransactionIsolation); perr == nil {
				r.txnSess.SetIsolation(iso)
			}
		}
		res, err = r.txnSess.ExecuteContext(ctx, prepared, params...)
		r.txnMu.Unlock()
	case core.TransactionPerMessage:
		sess := r.engine.NewSession()
		if iso, perr := sqlengine.ParseIsolationLevel(r.Config.TransactionIsolation); perr == nil {
			sess.SetIsolation(iso)
		}
		// Auto-commit in the engine is already statement-atomic, which
		// is exactly the per-message atomic transaction semantics.
		res, err = sess.ExecuteContext(ctx, prepared, params...)
	default: // TransactionNotSupported
		res, err = r.engine.NewSession().ExecuteContext(ctx, prepared, params...)
	}
	if res == nil && err != nil {
		return nil, execFault(err)
	}
	data := newResponseData(res)
	if err != nil {
		// Execution failed: the communication area carries the
		// diagnostic; surface both, letting service layers choose to
		// fault or to ship the CA.
		return data, execFault(err)
	}
	return data, nil
}

// execFault maps engine errors to DAIS faults: a cancelled or timed-out
// execution becomes a RequestTimeoutFault, everything else an
// InvalidExpressionFault. Bare context errors (a GetTuples wait on a
// streaming tail outliving its request deadline) time out too.
func execFault(err error) error {
	var ce *sqlengine.CancelledError
	if errors.As(err, &ce) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &core.RequestTimeoutFault{Detail: err.Error()}
	}
	return &core.InvalidExpressionFault{Detail: err.Error()}
}

// authorize enforces the Readable/Writeable configurable properties:
// queries require Readable, data- and schema-changing statements
// require Writeable. The statement is classified through Engine.Prepare,
// which also warms the prepared-plan cache so the execution that follows
// reuses the parse and the compiled plan; unclassifiable text falls
// through to the engine, which will reject it anyway.
func (r *SQLDataResource) authorize(expression string) error {
	prep, err := r.engine.Prepare(expression)
	if err != nil {
		return nil
	}
	switch prep.Statement().(type) {
	case *sqlengine.SelectStmt, *sqlengine.ExplainStmt:
		return core.CheckReadable(r)
	case *sqlengine.BeginStmt, *sqlengine.CommitStmt, *sqlengine.RollbackStmt:
		return nil
	default: // DML and DDL
		return core.CheckWriteable(r)
	}
}

// Release implements core.DataResource; external data stays in place.
func (r *SQLDataResource) Release() error { return nil }
