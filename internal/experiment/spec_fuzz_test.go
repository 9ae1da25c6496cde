package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpec feeds arbitrary bytes to the spec decoder. Every input must
// either be rejected with an error or be exactly one JSON document whose
// spec normalizes idempotently and survives a JSON round trip, so a
// manifest's spec echo reproduces the run. The seed corpus lives in
// testdata/fuzz/FuzzSpec.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not one JSON document: %q", data)
		}
		n := s.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("normalizing twice changed the spec:\n once %+v\ntwice %+v", n, again)
		}
		blob, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		back, err := ParseSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("normalized spec %s does not parse: %v", blob, err)
		}
		if !reflect.DeepEqual(back, n) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, n)
		}
	})
}
