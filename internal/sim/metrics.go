package sim

import (
	"time"

	"etap/internal/obs"
)

// Process-wide simulator metrics, registered on the default obs
// registry. Updates happen once per finished execution (never per
// instruction), so the inner loop's speed and its determinism are
// untouched: nothing here reads RNG state or feeds back into results.
var (
	simRuns = obs.Default().CounterVec("etap_sim_runs_total",
		"Simulated executions by kind: scratch (from instruction zero), record (golden pass capturing checkpoints), restore (resumed from a checkpoint).",
		"kind")
	simRunsScratch = simRuns.With("scratch")
	simRunsRecord  = simRuns.With("record")
	simRunsRestore = simRuns.With("restore")

	simInstructions = obs.Default().Counter("etap_sim_instructions_total",
		"Instructions retired across all simulated executions.")
	simRunSeconds = obs.Default().Counter("etap_sim_run_seconds_total",
		"Wall-clock seconds spent executing simulated instructions.")
	simCheckpoints = obs.Default().Counter("etap_sim_checkpoints_total",
		"Machine checkpoints captured during golden-pass recordings.")
)

func init() {
	// ns/instruction is the simulator's headline cost metric (perfbench
	// reports it per layer as sim.*_ns_per_instr); exposing the running
	// ratio saves every dashboard the same division.
	obs.Default().GaugeFunc("etap_sim_ns_per_instruction",
		"Average wall-clock nanoseconds per retired instruction since process start.",
		func() float64 {
			instr := simInstructions.Value()
			if instr == 0 {
				return 0
			}
			return simRunSeconds.Value() / instr * 1e9
		})
}

// recordRunMetrics folds one finished execution into the process
// counters.
func recordRunMetrics(kind *obs.Counter, instret uint64, elapsed time.Duration) {
	kind.Inc()
	simInstructions.Add(float64(instret))
	simRunSeconds.Add(elapsed.Seconds())
}
