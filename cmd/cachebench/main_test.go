package main

import (
	"testing"

	"znscache/internal/harness"
)

func TestUnreadScaleFlag(t *testing.T) {
	all := experiments(sizes{}, 0, harness.Env{}, nil)
	for _, c := range []struct {
		experiment, trace, admission string
		given                        []string
		want                         string
	}{
		{"table2", "", "", []string{"keys", "reads", "zones"}, "zones"},
		{"fig2", "", "", []string{"zones", "reads"}, "reads"},
		{"fig2", "", "", []string{"zones", "ops", "warmup", "keys", "seed", "json"}, ""},
		{"fig2", "", "", []string{"admit-budget"}, "admit-budget"},
		{"fig2", "", "dynamic-random", []string{"admit-budget"}, ""},
		{"table1", "", "", []string{"zones", "limits"}, "limits"},
		{"all", "", "", []string{"zones", "ops", "warmup", "keys", "reads", "cache-zones", "limits", "chunk-kib", "admit-budget"}, ""},
		{"all", "t.csv", "", []string{"zones", "scheme"}, ""},
		{"all", "t.csv", "", []string{"ops"}, "ops"},
	} {
		runs := selected(all, c.experiment, c.trace)
		if got := unreadScaleFlag(all, runs, c.admission, c.given); got != c.want {
			t.Errorf("-experiment %q -trace %q -admission %q %v: unread %q, want %q",
				c.experiment, c.trace, c.admission, c.given, got, c.want)
		}
	}
}
