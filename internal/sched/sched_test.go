package sched

import (
	"reflect"
	"strings"
	"testing"
)

func TestLaneRunsOneTaskAtATime(t *testing.T) {
	start, end := Run([]Task{{Lane: 0, Dur: 2}, {Lane: 0, Dur: 3}, {Lane: 1, Dur: 1}, {Lane: 0, Dur: 0.5}}, 2)
	if want := []float64{0, 2, 0, 5}; !reflect.DeepEqual(start, want) {
		t.Fatalf("starts %v, want %v", start, want)
	}
	if want := []float64{2, 5, 1, 5.5}; !reflect.DeepEqual(end, want) {
		t.Fatalf("ends %v, want %v", end, want)
	}
}

func TestTaskWaitsForDependencyOnAnotherLane(t *testing.T) {
	// Task 2 is free on lane 1 at 1 but waits for task 0 on lane 0; task 3
	// follows it on lane 1, and task 4 waits for both lanes.
	tasks := []Task{
		{Lane: 0, Dur: 4},
		{Lane: 1, Dur: 1},
		{Lane: 1, Dur: 2, Deps: []int{0}},
		{Lane: 1, Dur: 1},
		{Lane: 0, Dur: 1, Deps: []int{3, 1}},
	}
	start, end := Run(tasks, 2)
	if want := []float64{0, 0, 4, 6, 7}; !reflect.DeepEqual(start, want) {
		t.Fatalf("starts %v, want %v", start, want)
	}
	if end[4] != 8 {
		t.Fatalf("last task ends at %v, want 8", end[4])
	}
}

func TestTiesBreakByIndex(t *testing.T) {
	// Both lane-0 tasks are ready at 1 (task 0 ends then); the lower
	// index runs first whatever the durations.
	tasks := []Task{
		{Lane: 1, Dur: 1},
		{Lane: 0, Dur: 5, Deps: []int{0}},
		{Lane: 0, Dur: 1, Deps: []int{0}},
	}
	start, _ := Run(tasks, 2)
	if start[1] != 1 || start[2] != 6 {
		t.Fatalf("starts %v: task 1 must run at 1, then task 2 at 6", start)
	}
}

func TestRerunIsIdentical(t *testing.T) {
	var tasks []Task
	for i := range 200 {
		tk := Task{Lane: i % 3, Dur: float64(i%7) * 0.1}
		if i > 0 {
			tk.Deps = []int{i / 2, i - 1}
		}
		tasks = append(tasks, tk)
	}
	s1, e1 := Run(tasks, 3)
	s2, e2 := Run(tasks, 3)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("two runs of one task list differ")
	}
}

func TestDependencyOnNonEarlierTaskPanics(t *testing.T) {
	for name, deps := range map[string][]int{"later": {2}, "same": {1}, "negative": {-1}} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "sched: task 1 depends on task") || !strings.Contains(msg, "not an earlier task") {
					t.Fatalf("panic %q, want sched's named message", msg)
				}
			}()
			Run([]Task{{Dur: 1}, {Dur: 1, Deps: deps}, {Dur: 1}}, 1)
		})
	}
}
