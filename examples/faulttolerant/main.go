// Faulttolerant: run a distributed sort on an unreliable network — message
// drops, checksum-guarded corruption, a channel outage and a processor
// crash-stop — and let the verify-and-retry layer recover a correct answer.
//
// Fault injection is deterministic: every decision is a pure function of the
// fault plan's seed and the (cycle, processor, channel) coordinates, so every
// failure shown here replays identically from the same plan.
//
//	go run ./examples/faulttolerant
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"mcbnet"
)

func main() {
	// Eight processors, eight values each, on four broadcast channels.
	inputs := make([][]int64, 8)
	for i := range inputs {
		for j := 0; j < 8; j++ {
			inputs[i] = append(inputs[i], int64((i*37+j*11)%64))
		}
	}

	// An unreliable network: 0.2% of deliveries dropped, 0.2% corrupted
	// (detected by the per-message checksum and read as silence), all seeded.
	// Seed 13 is a deliberately unlucky one: the first attempts fault.
	plan := &mcbnet.FaultPlan{
		Seed:        13,
		DropRate:    0.002,
		CorruptRate: 0.002,
		Checksum:    true,
	}

	// A single unverified run on this network fails with a typed error.
	_, _, err := mcbnet.Sort(inputs, mcbnet.SortOptions{K: 4, Faults: plan})
	fmt.Printf("single attempt on the faulty network: %v\n", err)

	// The retry layer re-executes a faulted phase segment from the last
	// verified phase boundary — each attempt reseeds the stochastic faults —
	// and verifies every accepted output (sortedness, cardinality
	// preservation, multiset-permutation of the input).
	outputs, rep, err := mcbnet.SortWithRetry(inputs, mcbnet.SortOptions{
		K:      4,
		Faults: plan,
		Retry:  mcbnet.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered after %d attempt(s): P1 now holds %v\n", rep.Attempts, outputs[0])

	// Crash-stops are typed too: schedule a processor death and watch the
	// error taxonomy name it. A cycle recorder captures the whole doomed run
	// — every broadcast, silence, fault and the crash itself — into
	// preallocated ring buffers (recording never allocates).
	crashed := plan.Clone()
	crashed.Crashes = []mcbnet.FaultCrash{{Proc: 3, Cycle: 10}}
	rec := mcbnet.NewTraceRecorder(len(inputs), 4, 1<<14)
	_, _, err = mcbnet.Sort(inputs, mcbnet.SortOptions{K: 4, Faults: crashed, Recorder: rec})
	var ce *mcbnet.CrashError
	if errors.As(err, &ce) {
		fmt.Printf("scripted crash surfaces as: %v\n", ce)
	}

	// Export the captured run as Chrome trace-event JSON: open the file in
	// https://ui.perfetto.dev to see one track per channel, one per
	// processor, the algorithm's phases as spans — and processor 3's track
	// going quiet at cycle 10.
	f, err := os.Create("faulttolerant.perfetto.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.WritePerfetto(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote faulttolerant.perfetto.json (%d events) — open it in https://ui.perfetto.dev\n", rec.Total())

	// Selection can degrade gracefully instead: give the dead processor's
	// elements up and answer the rank over the survivors.
	deathOnly := &mcbnet.FaultPlan{Crashes: []mcbnet.FaultCrash{{Proc: 3, Cycle: 10}}}
	val, selRep, err := mcbnet.SelectWithRetry(inputs, mcbnet.SelectOptions{
		K:      4,
		D:      10,
		Faults: deathOnly,
		Retry:  mcbnet.RetryPolicy{MaxAttempts: 3, DegradeOnCrash: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded selection: rank 10 over the survivors = %d (gave up on processors %v, %d attempts)\n",
		val, selRep.DeadProcs, selRep.Attempts)
}
