package pcs

import (
	"encoding/json"
	"os"
	"testing"
)

// The redundancy/reissue golden pin. The other report goldens run Basic
// and PCS only, so nothing else pins the bytes of a RED-k or RI-p run:
// its multi-execution sub-requests, cancel-on-start sweeps, timeout
// cancellations of queued executions, reissue timers and estimator
// feedback. These cells cover each of them, including mid-run steering
// that leaves the old policy's timers and completions in flight.
// Regenerate deliberately:
//
//	PCS_WRITE_GOLDEN=1 go test -run TestRedundancyReportGoldens ./pcs
const redundancyGoldenPath = "testdata/redundancy_reports.json"

// redundancyCell is one pinned run: a spec, optional steering registered
// before the run starts (at a quarter of the horizon), and whether the
// run must time visits out.
type redundancyCell struct {
	key      string
	spec     RunSpec
	steer    func(c *Controller, at float64) error
	timeouts bool
}

func redundancyCells() []redundancyCell {
	nutch := func(tech Technique) RunSpec { return equivOpts(tech, "nutch-search", 17) }
	// Loaded DAG cells: at these rates visits miss their deadlines, so
	// timeouts cancel queued executions — RED-3 siblings, RI-90 backups.
	loaded := func(tech Technique, scenario string, rate float64, lanes int) RunSpec {
		s := equivOpts(tech, scenario, 17)
		s.ArrivalRate, s.Lanes = rate, lanes
		return s
	}
	swapTo := func(tech Technique) func(*Controller, float64) error {
		return func(c *Controller, at float64) error { return c.SetTechniqueAt(at, tech) }
	}
	return []redundancyCell{
		{key: "nutch-search/RED-3", spec: nutch(RED3)},
		{key: "nutch-search/RED-5", spec: nutch(RED5)},
		{key: "nutch-search/RI-90", spec: nutch(RI90)},
		{key: "nutch-search/RI-99", spec: nutch(RI99)},
		{key: "dag-timeout/RED-3", spec: loaded(RED3, "dag-timeout", 1000, 0), timeouts: true},
		{key: "dag-timeout/RED-3/lanes-2", spec: loaded(RED3, "dag-timeout", 1000, 2), timeouts: true},
		{key: "fanout-retry/RI-90", spec: loaded(RI90, "fanout-retry", 1600, 0), timeouts: true},
		// The threshold autoscaler holds still under RI-p (its dispatch
		// does not spread), so the scale-up cell steers explicitly.
		{key: "autoscale-burst/RI-90", spec: equivOpts(RI90, "autoscale-burst", 17)},
		{key: "nutch-search/RI-90/scale-4", spec: nutch(RI90), steer: func(c *Controller, at float64) error {
			return c.SetReplicasAt(at, 4)
		}},
		// A fresh RI-90 estimator takes over while the old policy's
		// reissue timers are pending and its completions still arrive.
		{key: "nutch-search/RI-90->RI-90", spec: nutch(RI90), steer: swapTo(RI90)},
		{key: "nutch-search/RED-3->Basic", spec: nutch(RED3), steer: swapTo(Basic)},
	}
}

// TestRedundancyReportGoldens runs every cell and compares the serialized
// reports against the goldens.
func TestRedundancyReportGoldens(t *testing.T) {
	write := os.Getenv("PCS_WRITE_GOLDEN") != ""
	got := make(map[string]json.RawMessage)
	for _, c := range redundancyCells() {
		s, err := NewSimulation(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if c.steer != nil {
			if err := c.steer(s.Controller(), s.Horizon()/4); err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
		}
		res := s.Finish()
		if c.timeouts && res.TimedOut == 0 {
			t.Errorf("%s: no visit timed out; the cell no longer cancels on timeout", c.key)
		}
		got[c.key] = reportBytes(t, res)
	}
	if write {
		writeGoldens(t, redundancyGoldenPath, got)
		return
	}
	compareGoldens(t, redundancyGoldenPath, got)
}
