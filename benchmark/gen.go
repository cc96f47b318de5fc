package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dais/internal/sqlengine"
)

// Data and input generation. Table contents are pure functions of the
// row index, so every oracle is a closed form; the operation stream is
// a pure function of (workload, seed, client index). The servers see
// only the generated SQL text, parameters and targets — never the seed
// or the workload name.

// sizes fixes one workload's data volume. The full sizes are the ones
// the README documents; tiny sizes serve the smoke test.
type sizes struct {
	PointTables int // data_0..data_{n-1}
	PointRows   int // rows per point table
	Books       int // documents in the XML collection
	BulkRows    int // rows of the bulk `data` table
	FactRows    int // rows of `facts` on scan_agg
	WriteRows   int // rows of `facts` on write_beside_read
}

var fullSizes = sizes{PointTables: 8, PointRows: 1000, Books: 30, BulkRows: 50000, FactRows: 200000, WriteRows: 100000}
var tinySizes = sizes{PointTables: 8, PointRows: 200, Books: 30, BulkRows: 9000, FactRows: 5000, WriteRows: 3000}

const (
	factGroups  = 64   // facts.grp = id % 64; dims has one row per group
	factTags    = 7    // facts.payload starts "k<id%7>-"
	pointSpan   = 20   // rows a sql_direct range returns
	indirectLen = 10   // rows a sql_indirect range returns
	joinSpan    = 2000 // ids the join template's BETWEEN covers
	betweenSpan = 1000 // width of the BETWEEN template's num range
	bulkWindow  = 4096 // rows per GetTuples window on bulk_indirect
)

// pointRow renders row i of a point/bulk table: (id, payload, num).
func pointRow(sb *strings.Builder, i int) {
	fmt.Fprintf(sb, "(%d, 'row-%06d-payload-abcdefghij', %g)", i, i, float64(i)*1.5)
}

// factRow renders row i of facts: (id, grp, payload, num). num is
// monotone in id, so a num range is zone-map skippable; grp and the
// payload tag cycle, so every chunk spans their whole range and a
// predicate on them runs the kernels over every chunk.
func factRow(sb *strings.Builder, i int) {
	fmt.Fprintf(sb, "(%d, %d, 'k%d-%06d-payload', %g)", i, i%factGroups, i%factTags, i, float64(i)*0.5)
}

// bookPrice is the price of book i.
func bookPrice(i int) int { return 10 + 3*i }

func bookDoc(i int) string {
	return fmt.Sprintf(`<book id="%d" genre="g%d"><title>Title %02d</title><author>Author %d</author><price>%d</price></book>`,
		i, i%4, i, i%9, bookPrice(i))
}

// sumRange is lo + (lo+1) + ... + hi.
func sumRange(lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	n := float64(hi - lo + 1)
	return n * float64(lo+hi) / 2
}

// countCong counts 0 <= i < n with i % m == r.
func countCong(n, m, r int) int {
	if n <= r {
		return 0
	}
	return (n-r-1)/m + 1
}

// sumCong sums the i counted by countCong.
func sumCong(n, m, r int) float64 {
	k := countCong(n, m, r)
	return float64(k)*float64(r) + float64(m)*float64(k)*float64(k-1)/2
}

// opKind selects the call sequence an Op runs.
type opKind uint8

const (
	kSQLExecute   opKind = iota // direct SQLExecute, result checked
	kSQLIndirect                // factory -> GetSQLRowset -> WSRFDestroy
	kBulkSession                // factory -> rowset factory -> FetchPages -> destroy both
	kXPath                      // XPathExecute
	kGetProperty                // GetResourceProperty
	kSetTermTime                // SetTerminationTime
	kGenericQuery               // GenericQuery on the gateway alias
	kDML                        // SQLExecute returning an update count
)

// want is an operation's oracle. Zero fields are not checked, except
// Rows, which is always checked on row-returning kinds.
type want struct {
	Rows     int     // rows the reply must carry
	IDSum    float64 // sum of column 0 over the rows (when CheckIDs)
	CheckIDs bool
	// Aggregate checks over the reply: sum of column CountCol must be
	// in [CountLo, CountHi]; sum of column SumCol must equal Sum.
	CountCol, SumCol int
	CountLo, CountHi float64
	Sum              float64
	CheckAgg         bool
	CheckSum         bool
	FirstID          int64 // value of row 0 column 0 (when CheckFirst)
	CheckFirst       bool
	UpdateCount      int // kDML
}

// Op is one generated operation: everything the executor sends and
// everything it checks.
type Op struct {
	Class  string
	Kind   opKind
	Target int // index into the deployment's SQL refs (gateway: backend)
	OnXML  bool
	SQL    string
	Params []sqlengine.Value
	Expr   string // XPath expression or property QName
	Want   want
}

// String renders the op canonically; the seed-discipline test compares
// these byte for byte.
func (o Op) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s kind=%d target=%d xml=%v sql=%q expr=%q params=[", o.Class, o.Kind, o.Target, o.OnXML, o.SQL, o.Expr)
	for i, p := range o.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// generator yields one client's operation stream.
type generator interface {
	Next() Op
}

// newGenerator builds the stream of client `client` (0-based) of a
// workload. Each client owns a private RNG derived from the seed.
func newGenerator(workload string, sz sizes, seed int64, client int) generator {
	r := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 17))
	switch workload {
	case wlPointMix:
		return &mixGen{r: r, sz: sz, zipf: rand.NewZipf(r, 1.2, 1.5, uint64(sz.PointTables-1)),
			d: dealer{deck: deckOf(clSQLDirect, 6, clSQLIndirect, 2, clXMLXPath, 2, clWSRFProps, 2)}}
	case wlGateway:
		return &mixGen{r: r, sz: sz, gateway: true, zipf: rand.NewZipf(r, 1.2, 1.5, uint64(sz.PointTables-1)),
			d: dealer{deck: deckOf(clSQLDirect, 3, clWSRFProps, 1, clSQLIndirect, 1, clScatter, 1)}}
	case wlBulk:
		return &bulkGen{r: r, sz: sz}
	case wlScanAgg:
		return &scanGen{r: r, rows: sz.FactRows, d: dealer{deck: scanDeck()}}
	case wlWriteBeside:
		if client == 0 {
			return &writeGen{r: r, rows: sz.WriteRows}
		}
		return &scanGen{r: r, rows: sz.WriteRows, live: true,
			// Two full scans to one zone-map-skipped range, so the
			// class median is a full scan's, not the gap between the two.
			d: dealer{deck: readerDeck()}}
	}
	panic("unknown workload " + workload)
}

// clientsOf is the closed-loop client count of a workload: at most
// two. bulk_indirect is one session at a time by definition. scan_agg
// runs one client too: its statements differ a hundredfold in cost and
// the server has one core, so with two clients the pooled median was
// set by which long statement the other client happened to have in
// service (a third of its value across seeds), while one client already
// keeps the core busy.
func clientsOf(workload string) int {
	if workload == wlBulk || workload == wlScanAgg {
		return 1
	}
	return 2
}

// deckOf expands (name, weight) pairs into a deck of names.
func deckOf(pairs ...any) []string {
	var deck []string
	for i := 0; i < len(pairs); i += 2 {
		for n := 0; n < pairs[i+1].(int); n++ {
			deck = append(deck, pairs[i].(string))
		}
	}
	return deck
}

// dealer deals classes from a deck reshuffled each time it runs out:
// the mix proportions are exact over every deck, only the order (and
// the constants) depend on the seed. This keeps the work per run the
// same for every seed, which a plain weighted pick would not.
type dealer struct {
	deck []string
	pos  int
}

func (d *dealer) deal(r *rand.Rand) string {
	if d.pos == 0 {
		r.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	c := d.deck[d.pos]
	d.pos = (d.pos + 1) % len(d.deck)
	return c
}

// mixGen generates point_mix and gateway_mix: E17's StandardMix
// classes over zipf-picked tables.
type mixGen struct {
	r       *rand.Rand
	sz      sizes
	zipf    *rand.Zipf
	gateway bool
	d       dealer
	nDirect int
	nProps  int
}

func (g *mixGen) Next() Op {
	class := g.d.deal(g.r)
	table := int(g.zipf.Uint64())
	target := 0
	if g.gateway {
		target = g.r.Intn(2)
	}
	switch class {
	case clSQLDirect:
		lo := g.r.Intn(g.sz.PointRows - pointSpan)
		op := Op{Class: class, Kind: kSQLExecute, Target: target,
			Want: want{Rows: pointSpan, CheckIDs: true, IDSum: sumRange(lo, lo+pointSpan-1)}}
		// Half parametrised (one text per table: the plan cache hits),
		// half literal constants (thousands of texts: it churns).
		g.nDirect++
		if g.nDirect%2 == 0 {
			op.SQL = fmt.Sprintf(`SELECT id, payload, num FROM data_%d WHERE id BETWEEN ? AND ?`, table)
			op.Params = []sqlengine.Value{sqlengine.NewInt(int64(lo)), sqlengine.NewInt(int64(lo + pointSpan - 1))}
		} else {
			op.SQL = fmt.Sprintf(`SELECT id, payload, num FROM data_%d WHERE id BETWEEN %d AND %d`, table, lo, lo+pointSpan-1)
		}
		return op
	case clSQLIndirect:
		lo := g.r.Intn(g.sz.PointRows - indirectLen)
		return Op{Class: class, Kind: kSQLIndirect, Target: target,
			SQL:  fmt.Sprintf(`SELECT id, payload FROM data_%d WHERE id BETWEEN %d AND %d`, table, lo, lo+indirectLen-1),
			Want: want{Rows: indirectLen, CheckIDs: true, IDSum: sumRange(lo, lo+indirectLen-1)}}
	case clXMLXPath:
		limit := bookPrice(g.r.Intn(g.sz.Books - 1))
		n := 0
		for i := 0; i < g.sz.Books; i++ {
			if bookPrice(i) > limit {
				n++
			}
		}
		return Op{Class: class, Kind: kXPath, OnXML: true,
			Expr: fmt.Sprintf(`//book[price>%d]/title`, limit), Want: want{Rows: n}}
	case clWSRFProps:
		g.nProps++
		op := Op{Class: class, Kind: kGetProperty, Target: target, Expr: "Readable", Want: want{Rows: 1}}
		// The XML collection is the second standing resource of a
		// single daisd; the gateway fronts SQL resources only.
		op.OnXML = !g.gateway && table%2 == 1
		if g.nProps%5 == 0 {
			op.Kind = kSetTermTime
		}
		return op
	case clScatter:
		lo := g.r.Intn(g.sz.PointRows - pointSpan)
		return Op{Class: class, Kind: kGenericQuery,
			SQL: fmt.Sprintf(`SELECT id, payload, num FROM data_%d WHERE id BETWEEN %d AND %d`, table, lo, lo+pointSpan-1),
			// Both shards hold the same tables: the merged reply is
			// the sum of the two shards' rows.
			Want: want{Rows: 2 * pointSpan, CheckIDs: true, IDSum: 2 * sumRange(lo, lo+pointSpan-1)}}
	}
	panic("mixGen: class " + class)
}

// bulkGen generates bulk_indirect sessions: the whole table but a
// seeded handful of leading rows.
type bulkGen struct {
	r  *rand.Rand
	sz sizes
}

func (g *bulkGen) Next() Op {
	lo := g.r.Intn(64)
	return Op{Class: clBulk, Kind: kBulkSession,
		SQL:    `SELECT id, payload, num FROM data WHERE id >= ?`,
		Params: []sqlengine.Value{sqlengine.NewInt(int64(lo))},
		Want:   want{Rows: g.sz.BulkRows - lo, CheckIDs: true, IDSum: sumRange(lo, g.sz.BulkRows-1)}}
}

// The scan_agg statement templates. All are parametrised, so the plan
// cache always hits and the workload isolates execution.
const (
	tplBetween = `SELECT COUNT(*), SUM(num) FROM facts WHERE num BETWEEN ? AND ?`
	tplLike    = `SELECT COUNT(*) FROM facts WHERE payload LIKE ? AND num > ?`
	tplGroupBy = `SELECT grp, COUNT(*), SUM(num) FROM facts GROUP BY grp`
	tplInterp  = `SELECT SUM(num + id) FROM facts WHERE grp = ?`
	tplJoin    = `SELECT d.name, COUNT(*), SUM(f.num) FROM (SELECT grp, num FROM facts WHERE id BETWEEN ? AND ?) f JOIN dims d ON f.grp = d.id GROUP BY d.name`
	tplTop     = `SELECT id, num FROM facts WHERE grp = ? ORDER BY num DESC LIMIT 10`
)

var scanTemplates = []string{tplBetween, tplLike, tplGroupBy, tplInterp, tplJoin, tplTop}

// scanDeck weights the templates so that none takes more than 40 % of
// the server's busy time: the join and the interpreted sum cost tens
// of milliseconds each, the kernel scan about fifteen, the rest five or
// less. (The join bounds its fact side in a derived table: joined
// straight to facts, the engine joins all of it before filtering, and
// that one statement would be half the busy time.) The GROUP BY holds
// the 21st to 36th place of the 46 by cost, so the pooled median sits
// inside one template instead of on the border between two.
func scanDeck() []string {
	return deckOf(tplBetween, 10, tplLike, 6, tplGroupBy, 16, tplInterp, 2, tplJoin, 2, tplTop, 10)
}

// deckLen is the number of operations after which a workload's mix
// repeats exactly (for one client).
func deckLen(workload string) int {
	switch workload {
	case wlPointMix:
		return 12
	case wlGateway:
		return 6
	case wlScanAgg:
		return len(scanDeck())
	case wlWriteBeside:
		return 2 * len(writeDeck) // the traced run interleaves writer and reader
	}
	return 1
}

// readerDeck is what write_beside_read's reader deals.
func readerDeck() []string { return []string{tplGroupBy, tplGroupBy, tplBetween} }

// roundOps is the number of operations each client of the measured
// run deals in one round: a deck, so that every round is the same mix.
// On write_beside_read the writer's deck of seven runs beside the
// reader's deck of three, which takes about as long.
func roundOps(workload string) []int {
	if workload == wlWriteBeside {
		return []int{len(writeDeck), len(readerDeck())}
	}
	round := make([]int, clientsOf(workload))
	for i := range round {
		round[i] = deckLen(workload)
	}
	return round
}

// scanGen generates scan_agg operations and write_beside_read's reader.
type scanGen struct {
	r    *rand.Rand
	rows int
	live bool // facts is being written to: up to writeLive extra rows may be visible
	d    dealer
}

func (g *scanGen) Next() Op {
	tpl := g.d.deal(g.r)
	// The two templates write_beside_read's reader runs carry the
	// class "scan" on both workloads, so scan_p50_ms compares the same
	// statements with and without a writer beside them.
	class := clSQLDirect
	if tpl == tplGroupBy || tpl == tplBetween {
		class = clScan
	}
	n := g.rows
	op := Op{Class: class, Kind: kSQLExecute, SQL: tpl}
	switch tpl {
	case tplBetween:
		// num = id/2, so [lo, lo+span] on num is ids [2lo, 2lo+2span].
		// lo >= 1 keeps the writer's num = 0 rows out of the range.
		lo := 1 + g.r.Intn(n/2-betweenSpan-1)
		hi := lo + betweenSpan
		op.Params = []sqlengine.Value{sqlengine.NewDouble(float64(lo)), sqlengine.NewDouble(float64(hi))}
		cnt := float64(2*betweenSpan + 1)
		op.Want = want{Rows: 1, CheckAgg: true, CountCol: 0, CountLo: cnt, CountHi: cnt,
			CheckSum: true, SumCol: 1, Sum: 0.5 * sumRange(2*lo, 2*hi)}
	case tplLike:
		tag, c := g.r.Intn(factTags), g.r.Intn(100)
		op.Params = []sqlengine.Value{sqlengine.NewString(fmt.Sprintf("k%d%%", tag)), sqlengine.NewDouble(float64(c))}
		cnt := float64(countCong(n, factTags, tag) - countCong(2*c+1, factTags, tag))
		op.Want = want{Rows: 1, CheckAgg: true, CountCol: 0, CountLo: cnt, CountHi: cnt}
	case tplGroupBy:
		op.Want = want{Rows: factGroups, CheckAgg: true, CountCol: 1, CountLo: float64(n), CountHi: float64(n),
			CheckSum: true, SumCol: 2, Sum: 0.5 * sumRange(0, n-1)}
		if g.live {
			// Count conservation: the base rows plus whatever part
			// of the writer's current deck is visible.
			op.Want.CountHi += writeLive
		}
	case tplInterp:
		grp := g.r.Intn(factGroups)
		op.Params = []sqlengine.Value{sqlengine.NewInt(int64(grp))}
		op.Want = want{Rows: 1, CheckSum: true, SumCol: 0, Sum: 1.5 * sumCong(n, factGroups, grp)}
	case tplJoin:
		lo := g.r.Intn(n - joinSpan)
		op.Params = []sqlengine.Value{sqlengine.NewInt(int64(lo)), sqlengine.NewInt(int64(lo + joinSpan - 1))}
		op.Want = want{Rows: factGroups, CheckAgg: true, CountCol: 1, CountLo: joinSpan, CountHi: joinSpan,
			CheckSum: true, SumCol: 2, Sum: 0.5 * sumRange(lo, lo+joinSpan-1)}
	case tplTop:
		grp := g.r.Intn(factGroups)
		op.Params = []sqlengine.Value{sqlengine.NewInt(int64(grp))}
		top := grp + factGroups*(countCong(n, factGroups, grp)-1)
		op.Want = want{Rows: 10, CheckFirst: true, FirstID: int64(top)}
	}
	return op
}

// writeGen generates write_beside_read's writer: per deck four
// single-row INSERTs, two UPDATEs by key and one DELETE that removes
// the four oldest inserted rows, so the table size holds steady. The
// inserted rows carry num = 0 and live above the base ids, so the
// reader's closed forms over the base rows stay exact.
type writeGen struct {
	r        *rand.Rand
	rows     int
	pos      int
	inserted int
	deleted  int
}

var writeDeck = [...]byte{'I', 'I', 'U', 'I', 'I', 'U', 'D'}

// writeLive is the most written rows alive at once: one deck's four
// inserts, removed again by its delete.
const writeLive = 4

func (g *writeGen) Next() Op {
	step := writeDeck[g.pos]
	g.pos = (g.pos + 1) % len(writeDeck)
	switch step {
	case 'I':
		id := g.rows + g.inserted
		g.inserted++
		return Op{Class: clWrite, Kind: kDML, SQL: `INSERT INTO facts VALUES (?, ?, ?, ?)`,
			Params: []sqlengine.Value{sqlengine.NewInt(int64(id)), sqlengine.NewInt(int64(id % factGroups)),
				sqlengine.NewString(fmt.Sprintf("k%d-%06d-written", id%factTags, id)), sqlengine.NewDouble(0)},
			Want: want{UpdateCount: 1}}
	case 'U':
		id := g.r.Intn(g.rows)
		return Op{Class: clWrite, Kind: kDML, SQL: `UPDATE facts SET payload = ? WHERE id = ?`,
			Params: []sqlengine.Value{sqlengine.NewString(fmt.Sprintf("k%d-%06d-upd%05d", id%factTags, id, g.r.Intn(100000))),
				sqlengine.NewInt(int64(id))},
			Want: want{UpdateCount: 1}}
	default:
		lo := g.rows + g.deleted
		g.deleted += 4
		return Op{Class: clWrite, Kind: kDML, SQL: `DELETE FROM facts WHERE id >= ? AND id <= ?`,
			Params: []sqlengine.Value{sqlengine.NewInt(int64(lo)), sqlengine.NewInt(int64(lo + 3))},
			Want:   want{UpdateCount: 4}}
	}
}
