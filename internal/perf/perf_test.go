package perf

import (
	"strings"
	"testing"
)

// TestCompareAllocsExact pins the allocation gate: any allocs/op count
// other than the baseline's is a violation, in either direction, and a
// baseline scenario missing from the run is one too.
func TestCompareAllocsExact(t *testing.T) {
	base := Report{Scenarios: []Result{{Name: "s", NsPerOp: 100, AllocsPerOp: 5}}}
	for _, tc := range []struct {
		name string
		cur  []Result
		want string // substring of the single violation; "" for none
	}{
		{"above fails", []Result{{Name: "s", NsPerOp: 100, AllocsPerOp: 6}}, "allocs/op regressed: 6 > baseline 5"},
		{"below fails", []Result{{Name: "s", NsPerOp: 100, AllocsPerOp: 4}}, "allocs/op fell below the stale baseline: 4 < 5"},
		{"equal passes", []Result{{Name: "s", NsPerOp: 100, AllocsPerOp: 5}}, ""},
		{"missing fails", []Result{{Name: "other", NsPerOp: 100, AllocsPerOp: 5}}, "s: scenario missing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Compare(Report{Scenarios: tc.cur}, base, 0.5)
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("violations %q, want none", got)
				}
				return
			}
			if len(got) != 1 || !strings.Contains(got[0], tc.want) {
				t.Fatalf("violations %q, want one containing %q", got, tc.want)
			}
		})
	}
}
