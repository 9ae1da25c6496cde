package workload

import (
	"bytes"
	"math"
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
		// An fp profile pays one more init trace: wupwise's shape one
		// trace below its target of 18 is infeasible.
		{Profile{Name: "x", FP: true, StaticTraces: 17, Components: []Component{{10, 2600}}}, "below hot"},
		// The inner-loop counter is a 16-bit signed immediate: 40000
		// would wrap to -25536 and never count down to zero.
		{Profile{Name: "x", StaticTraces: 100, Components: []Component{{20, 40000}}}, "above the limit"},
		// The inner loop's back branch spans the component's bodies in a
		// 16-bit displacement.
		{Profile{Name: "x", StaticTraces: 3000, Components: []Component{{maxBranchTraces + 1, 1}}}, "loop-branch limit"},
		// A slice guard spans its slice's bodies in a 16-bit displacement:
		// rejected before Build assembles the image (at 1<<61 it would
		// never finish).
		{Profile{Name: "big", StaticTraces: 100000, Components: []Component{{5, 2}}}, "slice-guard limit"},
		{Profile{Name: "big", StaticTraces: 1 << 61, Components: []Component{{5, 2}}}, "slice-guard limit"},
	}
	for i, c := range cases {
		err := ValidateProfile(c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want %q", i, err, c.want)
		}
	}
	for _, good := range []Profile{
		{Name: "ok", StaticTraces: 100, Components: []Component{{20, 5}}},
		{Name: "max-iters", StaticTraces: 100, Components: []Component{{20, math.MaxInt16}}},
		{Name: "max-loop", StaticTraces: maxBranchTraces + 10, Components: []Component{{maxBranchTraces, 1}}},
	} {
		if err := ValidateProfile(good); err != nil {
			t.Errorf("good profile %s rejected: %v", good.Name, err)
		} else if _, err := Build(good); err != nil {
			t.Errorf("good profile %s does not build: %v", good.Name, err)
		}
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
