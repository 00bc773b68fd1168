package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckObservers pins the flag combinations oltpdrive refuses (exit 2)
// instead of dropping a flag or garbling stdout, and the ones it runs.
func TestCheckObservers(t *testing.T) {
	for _, c := range []struct {
		timeline, scrape string
		agg              time.Duration
		json             bool
		refused          string // "" = accepted; else a word of the message
	}{
		{},
		{json: true},
		{timeline: "tl.csv", scrape: "http://127.0.0.1:7891/metrics", agg: time.Second},
		{timeline: "tl.json", json: true},
		{timeline: "-"},
		{scrape: "http://127.0.0.1:7891/metrics", refused: "-scrape"},
		{agg: time.Second, refused: "-agg-interval"},
		{timeline: "-", json: true, refused: "stdout"},
	} {
		err := checkObservers(c.timeline, c.scrape, c.agg, c.json)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%+v refused: %v", c, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%+v: err = %v, want a refusal naming %q", c, err, c.refused)
		}
	}
}
