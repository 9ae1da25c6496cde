package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseProfile feeds arbitrary bytes to the custom-workload loader.
// Every input must either be rejected with an error or be exactly one JSON
// document whose profile MarshalProfile renders as JSON that parses back to
// an equal Profile. The seed corpus lives in testdata/fuzz/FuzzParseProfile.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not one JSON document: %q", data)
		}
		blob, err := MarshalProfile(p)
		if err != nil {
			t.Fatalf("marshal parsed profile: %v", err)
		}
		back, err := ParseProfile(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("marshaled profile %s does not parse: %v", blob, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, p)
		}
	})
}
