package main

import (
	"sync"
	"time"
)

// closedLoop runs w.clients submitters for d: each submits the recurring
// job, waits until every task is placed, completes them all and submits
// again. Client 0 also scrapes Stats once a second.
func closedLoop(e *runEnv, job jobInput, d time.Duration) {
	end := e.now() + int64(d)
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nextScrape := e.now()
			for e.now() < end {
				rec := e.submit(job, job.specs, -1, 0)
				if rec == nil {
					continue
				}
				select {
				case <-e.await(rec.id, len(rec.tasks)):
				case <-time.After(10 * time.Second):
					e.fail("job %d not fully placed within 10s", rec.id)
					return
				}
				e.attempt(len(rec.tasks))
				if err := e.sys.door.complete(rec.tasks); err != nil {
					e.fail("complete job %d: %v", rec.id, err)
				}
				if now := e.now(); c == 0 && now >= nextScrape {
					e.scrape()
					nextScrape = now + int64(time.Second)
				}
			}
		}(c)
	}
	wg.Wait()
}
