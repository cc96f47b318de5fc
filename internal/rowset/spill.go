package rowset

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dais/internal/sqlengine"
)

// Spill page format: one self-delimiting record per sealed page,
// appended to a single file per resource. Layout:
//
//	uvarint rowCount
//	uvarint width
//	rowCount * width values, each:
//	    1 byte  type (sqlengine.Type)
//	    payload by type:
//	        NULL               — nothing
//	        INTEGER/BIGINT     — zigzag varint
//	        DOUBLE             — 8 bytes little-endian IEEE-754 bits
//	        VARCHAR            — uvarint length + bytes
//	        BOOLEAN            — 1 byte (0/1)
//	        TIMESTAMP          — uvarint length + time.MarshalBinary
//
// The format round-trips sqlengine.Value exactly (type, width and
// payload), which is what keeps spilled GetTuples pages byte-identical
// to in-memory ones: the codecs see the same values either way.

// encodeSpillPage renders one page of rows.
func encodeSpillPage(rows [][]sqlengine.Value) []byte {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	buf := make([]byte, 0, 16+len(rows)*width*8)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(width))
	for _, row := range rows {
		for _, v := range row {
			buf = appendSpillValue(buf, v)
		}
	}
	return buf
}

func appendSpillValue(buf []byte, v sqlengine.Value) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case sqlengine.TypeNull:
	case sqlengine.TypeInteger, sqlengine.TypeBigint:
		buf = binary.AppendVarint(buf, v.I)
	case sqlengine.TypeDouble:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case sqlengine.TypeVarchar:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case sqlengine.TypeBoolean:
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case sqlengine.TypeTimestamp:
		// MarshalBinary on a wall-clock time cannot fail.
		tb, _ := v.Time().MarshalBinary()
		buf = binary.AppendUvarint(buf, uint64(len(tb)))
		buf = append(buf, tb...)
	}
	return buf
}

// decodeSpillPage parses one record produced by encodeSpillPage.
func decodeSpillPage(data []byte) ([][]sqlengine.Value, error) {
	rowCount, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("bad row count")
	}
	data = data[n:]
	width, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("bad width")
	}
	data = data[n:]
	rows := make([][]sqlengine.Value, rowCount)
	slab := make([]sqlengine.Value, rowCount*width)
	for i := range rows {
		rows[i] = slab[uint64(i)*width : (uint64(i)+1)*width : (uint64(i)+1)*width]
		for j := range rows[i] {
			v, rest, err := decodeSpillValue(data)
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %w", i, j, err)
			}
			rows[i][j] = v
			data = rest
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(data))
	}
	return rows, nil
}

func decodeSpillValue(data []byte) (sqlengine.Value, []byte, error) {
	if len(data) == 0 {
		return sqlengine.Null, nil, fmt.Errorf("truncated value")
	}
	t := sqlengine.Type(data[0])
	data = data[1:]
	switch t {
	case sqlengine.TypeNull:
		return sqlengine.Null, data, nil
	case sqlengine.TypeInteger, sqlengine.TypeBigint:
		i, n := binary.Varint(data)
		if n <= 0 {
			return sqlengine.Null, nil, fmt.Errorf("bad integer")
		}
		return sqlengine.Value{Type: t, I: i}, data[n:], nil
	case sqlengine.TypeDouble:
		if len(data) < 8 {
			return sqlengine.Null, nil, fmt.Errorf("truncated double")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		return sqlengine.NewDouble(f), data[8:], nil
	case sqlengine.TypeVarchar:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return sqlengine.Null, nil, fmt.Errorf("bad string length")
		}
		return sqlengine.NewString(string(data[n : uint64(n)+l])), data[uint64(n)+l:], nil
	case sqlengine.TypeBoolean:
		if len(data) < 1 {
			return sqlengine.Null, nil, fmt.Errorf("truncated boolean")
		}
		return sqlengine.NewBool(data[0] != 0), data[1:], nil
	case sqlengine.TypeTimestamp:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return sqlengine.Null, nil, fmt.Errorf("bad timestamp length")
		}
		var tm time.Time
		if err := tm.UnmarshalBinary(data[uint64(n) : uint64(n)+l]); err != nil {
			return sqlengine.Null, nil, fmt.Errorf("timestamp: %w", err)
		}
		return sqlengine.NewTimestamp(tm), data[uint64(n)+l:], nil
	}
	return sqlengine.Null, nil, fmt.Errorf("unknown type byte %d", t)
}
