package betree

import (
	"reflect"
	"testing"
)

// TestDeleteSpan checks deleteSpan against the append reference for every
// span [lo,hi) of slices of length 0–9: the same entries in the same
// order, the shorter side moved (so the result starts hi-lo slots into
// the backing array exactly when the gap is nearer the front), and every
// vacated slot of the backing array zeroed.
func TestDeleteSpan(t *testing.T) {
	mk := func(n int) []entry {
		es := make([]entry, n)
		for i := range es {
			es[i] = entry{key: []byte{'a' + byte(i)}, val: InlineValue([]byte{byte(i)})}
		}
		return es
	}
	for n := 0; n <= 9; n++ {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				ref := mk(n)
				want := append(ref[:lo], ref[hi:]...)

				es := mk(n)
				got := deleteSpan(es, lo, hi)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d [%d,%d): got %v, want %v", n, lo, hi, got, want)
				}
				off := cap(es) - cap(got)
				wantOff := 0
				if lo < n-hi {
					wantOff = hi - lo
				}
				if off != wantOff {
					t.Fatalf("n=%d [%d,%d): result starts at slot %d, want %d", n, lo, hi, off, wantOff)
				}
				for i := range es {
					if i >= off && i < off+len(got) {
						continue
					}
					if !reflect.ValueOf(es[i]).IsZero() {
						t.Fatalf("n=%d [%d,%d): vacated slot %d still holds %v", n, lo, hi, i, es[i])
					}
				}
			}
		}
	}
}
