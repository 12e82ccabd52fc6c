package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadArrivalsCSV: any input parses or fails cleanly, never panics, and
// every trace that parses survives WriteArrivalsCSV → ReadArrivalsCSV
// unchanged. The one expected difference is the ID: IDs number records in
// file order, the writer emits the arrival-sorted trace, so the re-read
// trace numbers requests 0, 1, 2, … in that order.
func FuzzReadArrivalsCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadArrivalsCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteArrivalsCSV(&buf, reqs); err != nil {
			t.Fatalf("write of a parsed trace failed: %v", err)
		}
		back, err := ReadArrivalsCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v\nwritten:\n%s", err, buf.Bytes())
		}
		for i := range reqs {
			reqs[i].ID = i
		}
		if !reflect.DeepEqual(reqs, back) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v\nwritten:\n%s", back, reqs, buf.Bytes())
		}
	})
}
