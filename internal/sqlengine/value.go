// Package sqlengine implements a self-contained, in-memory relational
// database engine with a practical SQL subset: DDL (CREATE/DROP TABLE,
// CREATE/DROP INDEX), DML (INSERT, UPDATE, DELETE), and queries
// (SELECT with WHERE, INNER/LEFT JOIN, GROUP BY/HAVING, aggregates,
// DISTINCT, ORDER BY, LIMIT/OFFSET, parameter markers), plus
// transactions with the four ANSI isolation levels.
//
// The DAIS specifications treat the DBMS as an existing system that
// services wrap (paper §2.1: "web service wrappers for databases"), so
// this engine is the substitute substrate for the commercial DBMSs the
// OGSA-DAI reference implementation targeted. It exposes the artefacts
// WS-DAIR needs: result sets with column metadata, update counts, and
// an SQL communication area (SQLSTATE) per statement.
package sqlengine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the engine's column types. One byte: it sits in every
// Value.
type Type uint8

const (
	TypeNull Type = iota
	TypeInteger
	TypeBigint
	TypeDouble
	TypeVarchar
	TypeBoolean
	TypeTimestamp
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInteger:
		return "INTEGER"
	case TypeBigint:
		return "BIGINT"
	case TypeDouble:
		return "DOUBLE"
	case TypeVarchar:
		return "VARCHAR"
	case TypeBoolean:
		return "BOOLEAN"
	case TypeTimestamp:
		return "TIMESTAMP"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// TypeFromName resolves a SQL type name (with optional length suffix
// already stripped) to a Type.
func TypeFromName(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "SMALLINT":
		return TypeInteger, nil
	case "BIGINT":
		return TypeBigint, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return TypeDouble, nil
	case "VARCHAR", "CHAR", "TEXT", "CHARACTER", "STRING", "CLOB":
		return TypeVarchar, nil
	case "BOOLEAN", "BOOL":
		return TypeBoolean, nil
	case "TIMESTAMP", "DATETIME", "DATE":
		return TypeTimestamp, nil
	}
	return TypeNull, fmt.Errorf("unknown type %q", name)
}

// Value is a typed SQL value. A Value with Type == TypeNull is the SQL
// NULL regardless of the other fields.
//
// It is 40 bytes with one pointer in them (TestValueSize): a bulk
// session is 150 000 of these on the consumer, every stored row is a
// slice of them on the server, and each byte is zeroed when a slab is
// made and each pointer visited when the collector marks. A TIMESTAMP
// is therefore not a time.Time (24 bytes, a second pointer) but its
// Unix seconds in I and the nanoseconds beside Type; Time puts them
// back together.
type Value struct {
	I    int64   // Integer, Bigint; Timestamp: seconds since the Unix epoch
	F    float64 // Double
	S    string  // Varchar
	nsec uint32  // Timestamp: nanoseconds within the second
	Type Type
	B    bool // Boolean
}

// Null is the SQL NULL value.
var Null = Value{Type: TypeNull}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{Type: TypeInteger, I: i} }

// NewBigint returns a BIGINT value.
func NewBigint(i int64) Value { return Value{Type: TypeBigint, I: i} }

// NewDouble returns a DOUBLE value.
func NewDouble(f float64) Value { return Value{Type: TypeDouble, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{Type: TypeVarchar, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value { return Value{Type: TypeBoolean, B: b} }

// NewTimestamp returns a TIMESTAMP value: the instant, without the
// location it was given in.
func NewTimestamp(t time.Time) Value {
	return Value{Type: TypeTimestamp, I: t.Unix(), nsec: uint32(t.Nanosecond())}
}

// Time returns a TIMESTAMP value's instant, in UTC.
func (v Value) Time() time.Time { return time.Unix(v.I, int64(v.nsec)).UTC() }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// String renders the value for result sets and diagnostics. NULL
// renders as "NULL"; use IsNull to distinguish it from the string.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInteger, TypeBigint:
		return strconv.FormatInt(v.I, 10)
	case TypeDouble:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeVarchar:
		return v.S
	case TypeBoolean:
		if v.B {
			return "true"
		}
		return "false"
	case TypeTimestamp:
		return v.Time().Format(time.RFC3339Nano)
	}
	return "?"
}

// AppendText appends String's rendering to dst. Numeric, boolean and
// timestamp values append without the intermediate string allocation,
// which matters to the rowset encoders on the response hot path.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Type {
	case TypeNull:
		return append(dst, "NULL"...)
	case TypeInteger, TypeBigint:
		return appendInt(dst, v.I)
	case TypeDouble:
		return appendFloat(dst, v.F)
	case TypeVarchar:
		return append(dst, v.S...)
	case TypeBoolean:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case TypeTimestamp:
		return v.Time().AppendFormat(dst, time.RFC3339Nano)
	}
	return append(dst, '?')
}

// appendFloat appends what strconv.AppendFloat(dst, f, 'g', -1, 64)
// does — the shortest digits that read back as f — and, for a value
// below a million with at most three decimals, gets them from round(|f|
// × 1000) as an integer instead of a shortest-digits search: a third of
// what encoding a bulk window cost. If k / 1000 computed in floating
// point is |f|, the decimal k/1000 reads back as |f| (k and 1000 are
// exact and the division rounds once, as parsing does), and no shorter
// decimal can: one of at most nine digits shares its double with no
// other of at most fifteen. Below a million 'g' does not turn to an
// exponent. Everything else — NaN, infinities, zeros, more decimals —
// is strconv's.
func appendFloat(dst []byte, f float64) []byte {
	if a := math.Abs(f); a < 1e6 {
		if k := uint64(a*1000 + 0.5); k != 0 && float64(k)/1000 == a {
			if f < 0 {
				dst = append(dst, '-')
			}
			dst = appendUint(dst, k/1000)
			if frac := k % 1000; frac != 0 {
				dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
				for dst[len(dst)-1] == '0' {
					dst = dst[:len(dst)-1]
				}
			}
			return dst
		}
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendInt appends strconv.AppendInt(dst, i, 10). -i is taken as an
// unsigned word, which is |i| for MinInt64 too.
func appendInt(dst []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		dst = append(dst, '-')
		u = -u
	}
	return appendUint(dst, u)
}

// appendUint appends strconv.AppendUint(dst, u, 10), writing the digits
// straight into dst's room two at a time, last first, where strconv
// writes them into a buffer of its own and copies that.
func appendUint(dst []byte, u uint64) []byte {
	end := len(dst) + decimalLen(u)
	dst = slices.Grow(dst, end-len(dst))[:end]
	i := end
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		i -= 2
		dst[i], dst[i+1] = twoDigits[r], twoDigits[r+1]
		u = q
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = twoDigits[2*u], twoDigits[2*u+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
}

const twoDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10u holds 10^0 through 10^19, every power of ten a uint64 holds.
var pow10u = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is how many digits u has (one for zero). With L its bit
// length, L × 1233 >> 12 is ⌊L·log10 2⌋, u's digit count or one less;
// the table settles which. (u|1 only keeps the length of zero at one: it
// crosses no power of ten, those being even.)
func decimalLen(u uint64) int {
	n := bits.Len64(u|1) * 1233 >> 12
	if u >= pow10u[n] {
		n++
	}
	return max(n, 1)
}

// isNumeric reports whether the type participates in arithmetic.
func (t Type) isNumeric() bool {
	return t == TypeInteger || t == TypeBigint || t == TypeDouble
}

// asFloat converts any numeric value to float64.
func (v Value) asFloat() float64 {
	switch v.Type {
	case TypeInteger, TypeBigint:
		return float64(v.I)
	case TypeDouble:
		return v.F
	}
	return math.NaN()
}

// Coerce converts v to the target column type, applying the implicit
// conversions SQL permits on INSERT/UPDATE. NULL coerces to any type.
func (v Value) Coerce(t Type) (Value, error) {
	if v.IsNull() || v.Type == t {
		if v.IsNull() {
			return Null, nil
		}
		return v, nil
	}
	switch t {
	case TypeInteger, TypeBigint:
		switch v.Type {
		case TypeInteger, TypeBigint:
			return Value{Type: t, I: v.I}, nil
		case TypeDouble:
			switch {
			case v.F != math.Trunc(v.F) || math.IsInf(v.F, 0) || math.IsNaN(v.F):
				return Null, fmt.Errorf("cannot coerce %v to %s without loss", v.F, t)
			case v.F >= 0x1p63 || v.F < -0x1p63:
				return Null, errIntRange
			}
			return Value{Type: t, I: int64(v.F)}, nil
		case TypeVarchar:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot coerce %q to %s", v.S, t)
			}
			return Value{Type: t, I: i}, nil
		case TypeBoolean:
			if v.B {
				return Value{Type: t, I: 1}, nil
			}
			return Value{Type: t, I: 0}, nil
		}
	case TypeDouble:
		switch v.Type {
		case TypeInteger, TypeBigint:
			return NewDouble(float64(v.I)), nil
		case TypeVarchar:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot coerce %q to DOUBLE", v.S)
			}
			return NewDouble(f), nil
		}
	case TypeVarchar:
		return NewString(v.String()), nil
	case TypeBoolean:
		switch v.Type {
		case TypeInteger, TypeBigint:
			return NewBool(v.I != 0), nil
		case TypeVarchar:
			switch strings.ToLower(strings.TrimSpace(v.S)) {
			case "true", "t", "1":
				return NewBool(true), nil
			case "false", "f", "0":
				return NewBool(false), nil
			}
			return Null, fmt.Errorf("cannot coerce %q to BOOLEAN", v.S)
		}
	case TypeTimestamp:
		if v.Type == TypeVarchar {
			return parseTimestamp(v.S)
		}
	}
	return Null, fmt.Errorf("cannot coerce %s to %s", v.Type, t)
}

// parseTimestamp accepts the common SQL and RFC 3339 layouts.
func parseTimestamp(s string) (Value, error) {
	s = strings.TrimSpace(s)
	layouts := []string{
		time.RFC3339Nano,
		time.RFC3339,
		"2006-01-02 15:04:05.999999999",
		"2006-01-02 15:04:05",
		"2006-01-02",
	}
	for _, l := range layouts {
		if t, err := time.Parse(l, s); err == nil {
			return NewTimestamp(t), nil
		}
	}
	return Null, fmt.Errorf("cannot parse timestamp %q", s)
}

// Compare is the engine's one total order: predicates, kernels, zone
// maps, ORDER BY, MIN/MAX and the ordered index all compare in it, so an
// index answers what a scan answers. NULLs compare less than everything
// (the executor handles three-valued logic before calling Compare;
// ORDER BY uses this NULLS FIRST behaviour). Numeric types compare by
// exact value across widths — an INTEGER or BIGINT is never rounded to
// a DOUBLE to meet one —, -0 equals 0, and a NaN equals only NaN and
// sorts after +Inf, as in PostgreSQL.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.Type.isNumeric() && b.Type.isNumeric() {
		switch ad, bd := a.Type == TypeDouble, b.Type == TypeDouble; {
		case ad && bd:
			return cmpF(a.F, b.F), nil
		case ad:
			return -cmpIF(b.I, a.F), nil
		case bd:
			return cmpIF(a.I, b.F), nil
		}
		return cmpI(a.I, b.I), nil
	}
	if a.Type != b.Type {
		return 0, fmt.Errorf("cannot compare %s with %s", a.Type, b.Type)
	}
	switch a.Type {
	case TypeVarchar:
		return strings.Compare(a.S, b.S), nil
	case TypeBoolean:
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	case TypeTimestamp:
		if a.I != b.I {
			return cmpI(a.I, b.I), nil
		}
		return cmpI(int64(a.nsec), int64(b.nsec)), nil
	}
	return 0, fmt.Errorf("cannot compare values of type %s", a.Type)
}

// cmpF is Compare's order of two doubles. The ordered cases come first,
// so only an unordered pair — one at least a NaN — reaches the NaN rule;
// never use == alone on doubles here.
func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case !math.IsNaN(a): // b is the NaN
		return -1
	case !math.IsNaN(b):
		return 1
	}
	return 0
}

func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpIF is Compare's order of an integer and a double: exact, the
// integer never rounded, and a NaN after every integer.
func cmpIF(i int64, f float64) int {
	switch {
	case math.IsNaN(f) || f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := int64(f) // f truncated toward zero: exact in this range
	if c := cmpI(i, t); c != 0 {
		return c
	}
	return -cmpF(f, float64(t)) // i is f's integer part: its fraction decides
}

// Equal reports SQL equality (NULL = NULL is false; use for hashing
// only after checking IsNull).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// appendGroupKey appends v's grouping key, by which GROUP BY, DISTINCT
// and UNION partition values: NULL apart from every value, else the type
// and String's rendering.
func appendGroupKey(dst []byte, v Value) []byte {
	if v.IsNull() {
		return append(dst, "\x00null"...)
	}
	if v.Type == TypeDouble && v.F == 0 {
		v.F = 0 // −0 keys as 0: = finds them equal
	}
	dst = strconv.AppendInt(dst, int64(v.Type), 10)
	return v.AppendText(append(dst, 0))
}
