// Package sched is the simulator's one clock: a dependency schedule of
// tasks on serial lanes, after Daydream (Zhu et al.), whose tasks sit on
// threads, streams and channels, joined by dependencies. A lane runs one
// task at a time; a task starts once its lane is free and every task it
// depends on has ended. Tasks are placed in index order, so a task may
// depend only on earlier ones, ties on a lane go to the lower index, and
// a schedule is the same on every run.
package sched

import "fmt"

// Task is one unit of work: Dur seconds on lane Lane, after every task
// indexed in Deps has ended.
type Task struct {
	Lane int
	Dur  float64
	Deps []int
}

// Run schedules tasks on lanes serial lanes and returns each task's start
// and end time. It panics when a task depends on itself or a later task.
func Run(tasks []Task, lanes int) (start, end []float64) {
	start, end = make([]float64, len(tasks)), make([]float64, len(tasks))
	free := make([]float64, lanes)
	for i, t := range tasks {
		s := free[t.Lane]
		for _, d := range t.Deps {
			if d < 0 || d >= i {
				panic(fmt.Sprintf("sched: task %d depends on task %d, which is not an earlier task", i, d))
			}
			s = max(s, end[d])
		}
		start[i], end[i] = s, s+t.Dur
		free[t.Lane] = end[i]
	}
	return start, end
}
