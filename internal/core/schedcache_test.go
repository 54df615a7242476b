package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbnet/internal/schedule"
)

// TestCachedScheduleBuildsOnce: concurrent first users of one cold key share
// a single build. The stub build sleeps, so a cache that looks up, builds and
// then stores would let most of the users miss and build their own copy.
func TestCachedScheduleBuildsOnce(t *testing.T) {
	const users = 16
	var builds atomic.Int32
	build := func() *schedule.Schedule {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond)
		return &schedule.Schedule{}
	}
	key := "test/" + t.Name()
	t.Cleanup(func() { schedCache.Delete(key) }) // cold again on the next run
	got := make([]*schedule.Schedule, users)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = cachedSchedule(key, build)
		}()
	}
	start.Done()
	done.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent users of a cold key ran %d builds, want 1", users, n)
	}
	for i, s := range got {
		if s == nil || s != got[0] {
			t.Fatalf("user %d got schedule %p, user 0 got %p", i, s, got[0])
		}
	}
}
