package sqlengine

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

// TestValueSize pins the cell: 40 bytes with one pointer word in them
// (the string's). A bulk session is 150 000 cells on the consumer and
// every stored row is a slice of them on the server; each byte is zeroed
// when a slab is made and each pointer visited when the collector marks.
func TestValueSize(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size > 40 {
		t.Errorf("Value is %d bytes, over 40", size)
	}
	if n := pointerWords(reflect.TypeOf(Value{})); n != 1 {
		t.Errorf("Value holds %d pointer words, want 1", n)
	}
}

func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.String, reflect.Slice, reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// FuzzAppendFloat holds both renderings of a DOUBLE to strconv's
// shortest 'g' form, for any bit pattern.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64,
		0.1 + 0.2, 0.3, 123456.5, 999999.999, 999999.9995, 1e6, 1e21, 0.001, 0.0005, 0.0001, 1e-5,
		12499.75, -12499.75, 5, 0.25, 1.0005, 2.675, 1.005, 8.0000000000000001e5, 4503599627370496.5} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		want := strconv.FormatFloat(x, 'g', -1, 64)
		if got := string(NewDouble(x).AppendText([]byte("x="))); got != "x="+want {
			t.Fatalf("AppendText(%b) = %q, strconv says %q", x, got, want)
		}
		if got := NewDouble(x).String(); got != want {
			t.Fatalf("String(%b) = %q, strconv says %q", x, got, want)
		}
	})
}

// TestAppendFloatSweep walks what the fast path is for — every multiple
// of 0.001 in a stretch below a million, of 0.25 (the benchmark's num
// column) and of 0.01 — and their neighbours one ulp away, which must
// fall through.
func TestAppendFloatSweep(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		for _, y := range []float64{x, -x, math.Nextafter(x, 0), math.Nextafter(x, 1e9)} {
			if got, want := string(appendFloat(nil, y)), strconv.FormatFloat(y, 'g', -1, 64); got != want {
				t.Fatalf("appendFloat(%b) = %q, strconv says %q", y, got, want)
			}
		}
	}
	for k := 0; k < 2000000; k += 7 {
		check(float64(k) / 1000)
		check(float64(999999999-k) / 1000)
		check(float64(k) * 0.25)
		check(float64(k) / 100)
	}
}

// FuzzAppendInt holds the rendering of an INTEGER or BIGINT cell, whose
// digits are written in place, to strconv's: every digit count, both
// signs, MinInt64, and a destination with and without room to spare.
func FuzzAppendInt(f *testing.F) {
	f.Add(int64(0), 0)
	for _, i := range []int64{9, 10, 99, 100, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		f.Add(i, 3)
		f.Add(-i, 64)
	}
	for p := int64(10); p <= 1e18; p *= 10 {
		for _, i := range []int64{p - 1, p, p + 1} {
			f.Add(i, 0)
			f.Add(-i, 21)
		}
	}
	f.Fuzz(func(t *testing.T, i int64, room int) {
		dst := make([]byte, 2, 2+max(0, room%32))
		copy(dst, "x=")
		want := strconv.AppendInt([]byte("x="), i, 10)
		for _, typ := range []Type{TypeInteger, TypeBigint} {
			if got := (Value{Type: typ, I: i}).AppendText(dst); string(got) != string(want) {
				t.Fatalf("AppendText(%s %d) = %q, strconv says %q", typ, i, got, want)
			}
		}
		if got, want := appendUint(dst, uint64(i)), strconv.AppendUint([]byte("x="), uint64(i), 10); string(got) != string(want) {
			t.Fatalf("appendUint(%d) = %q, strconv says %q", uint64(i), got, want)
		}
	})
}
