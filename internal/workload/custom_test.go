package workload

import (
	"bytes"
	"strings"
	"testing"

	"itr/internal/trace"
)

const customJSON = `{
  "name": "mydb",
  "fp": false,
  "staticTraces": 400,
  "seed": 42,
  "components": [
    {"traces": 30, "iters": 200},
    {"traces": 120, "iters": 3},
    {"traces": 100, "iters": 1}
  ]
}`

func TestParseProfileAndBuild(t *testing.T) {
	p, err := ParseProfile(strings.NewReader(customJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mydb" || p.StaticTraces != 400 || len(p.Components) != 3 {
		t.Fatalf("parsed: %+v", p)
	}
	prog, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	c := trace.Characterize(prog, 1_000_000)
	if got := c.StaticTraces(); got != 400 {
		t.Fatalf("custom profile calibrated to %d static traces, want 400", got)
	}
}

func TestParseProfileRejectsUnknownFields(t *testing.T) {
	if _, err := ParseProfile(strings.NewReader(`{"name":"x","staticTraces":50,"typo":1,"components":[{"traces":5,"iters":2}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseProfile(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestParseProfileRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{" trailing garbage", customJSON, "}", "[]", "0"} {
		if _, err := ParseProfile(strings.NewReader(customJSON + tail)); err == nil {
			t.Errorf("profile followed by %q accepted", tail)
		}
	}
	if _, err := ParseProfile(strings.NewReader(customJSON + " \n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestValidateProfile(t *testing.T) {
	cases := []struct {
		p    Profile
		want string
	}{
		{Profile{}, "name"},
		{Profile{Name: "x"}, "component"},
		{Profile{Name: "x", Components: []Component{{0, 1}}}, "traces"},
		{Profile{Name: "x", Components: []Component{{5, -1}}}, "negative"},
		{Profile{Name: "x", StaticTraces: 5, Components: []Component{{50, 1}}}, "below hot"},
	}
	for i, c := range cases {
		err := ValidateProfile(c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want %q", i, err, c.want)
		}
	}
	good := Profile{Name: "ok", StaticTraces: 100, Components: []Component{{20, 5}}}
	if err := ValidateProfile(good); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
}

func TestMarshalProfileRoundTrip(t *testing.T) {
	orig, err := ParseProfile(strings.NewReader(customJSON))
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalProfile(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseProfile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.StaticTraces != orig.StaticTraces ||
		len(back.Components) != len(orig.Components) {
		t.Fatalf("round trip: %+v vs %+v", back, orig)
	}
	for i := range orig.Components {
		if back.Components[i] != orig.Components[i] {
			t.Fatalf("component %d: %+v vs %+v", i, back.Components[i], orig.Components[i])
		}
	}
}

func TestBuiltinProfilesValidate(t *testing.T) {
	for _, p := range Suite() {
		if err := ValidateProfile(p); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}
