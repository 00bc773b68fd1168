package main

import (
	"strings"
	"testing"
)

// TestCheckTopology pins the flag combinations oltpd refuses (exit 2)
// instead of dropping a flag, and the ones it serves.
func TestCheckTopology(t *testing.T) {
	for _, c := range []struct {
		cluster  string
		explicit []string
		refused  string // "" = accepted; else a word of the message
	}{
		{},
		{explicit: []string{"shards", "sockets"}},
		{cluster: "range:2x4", explicit: []string{"cluster", "node"}},
		{cluster: "range:2x4", explicit: []string{"cluster"}},
		{explicit: []string{"node"}, refused: "-node"},
		{cluster: "range:2x4", explicit: []string{"cluster", "node", "shards"}, refused: "-shards"},
	} {
		explicit := make(map[string]bool)
		for _, f := range c.explicit {
			explicit[f] = true
		}
		err := checkTopology(c.cluster, explicit)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%+v refused: %v", c, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), c.refused)):
			t.Errorf("%+v: err = %v, want a refusal naming %q", c, err, c.refused)
		}
	}
}
