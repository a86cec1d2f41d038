package evcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"primopt/internal/fault"
)

// TestDoCtxFailedComputeDoesNotPoisonWaiters is the single-flight
// poisoning regression: when the computing goroutine fails, waiters
// blocked on its in-flight channel must wake, re-attempt the
// computation themselves, and succeed — not inherit the first
// caller's error or hang on a stranded slot.
func TestDoCtxFailedComputeDoesNotPoisonWaiters(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	firstEntered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) {
			close(firstEntered)
			<-release
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("first caller: err = %v, want boom", err)
		}
	}()

	<-firstEntered
	const waiters = 8
	var recomputes atomic.Int64
	for range [waiters]struct{}{} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) {
				recomputes.Add(1)
				return testEntry(), nil
			})
			if err != nil || ent == nil || ent.Cost != 4.5 {
				t.Errorf("waiter: ent=%v err=%v, want healthy entry", ent, err)
			}
		}()
	}
	// Give the waiters time to park on the in-flight channel, then
	// fail the first computation.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := recomputes.Load(); n < 1 {
		t.Errorf("no waiter re-attempted after the failed compute")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	// The error itself must never have been cached.
	ent, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) {
		t.Error("compute re-ran for a cached key")
		return nil, nil
	})
	if err != nil || ent == nil {
		t.Fatalf("cached read: ent=%v err=%v", ent, err)
	}
}

// TestDoCtxPanicReleasesSlot asserts the panic ladder: a panicking
// compute propagates to its own caller, but releases the in-flight
// slot and wakes waiters, leaving the cache uncorrupted.
func TestDoCtxPanicReleasesSlot(t *testing.T) {
	c := New()
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		c.DoCtx(context.Background(), "k", func() (*Entry, error) {
			close(entered)
			time.Sleep(20 * time.Millisecond)
			panic("compute crashed")
		})
	}()
	<-entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		ent, err := c.DoCtx(context.Background(), "k", func() (*Entry, error) { return testEntry(), nil })
		if err != nil || ent == nil {
			t.Errorf("waiter after panic: ent=%v err=%v", ent, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after compute panic")
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (no corruption)", st.Entries)
	}
}

// TestDoCtxNilEntryIsAnError: a compute that returns no entry and no
// error fails its own call with an error naming the key, stores
// nothing, and releases the slot, so a waiter on the same key computes
// for itself instead of blocking forever.
func TestDoCtxNilEntryIsAnError(t *testing.T) {
	c := New()
	const key = "v2|snapshot-7"
	entered, release := make(chan struct{}), make(chan struct{})
	computed := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				computed <- fmt.Errorf("panic: %v", r)
			}
		}()
		_, err := c.DoCtx(context.Background(), key, func() (*Entry, error) {
			close(entered)
			<-release
			return nil, nil
		})
		computed <- err
	}()
	<-entered
	waited := make(chan *Entry, 1)
	go func() {
		ent, err := c.DoCtx(context.Background(), key, func() (*Entry, error) { return testEntry(), nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waited <- ent
	}()
	// Give the waiter time to park on the in-flight channel.
	time.Sleep(20 * time.Millisecond)
	close(release)
	timeout := time.After(2 * time.Second)
	select {
	case err := <-computed:
		if err == nil || !strings.Contains(err.Error(), "no entry") || !strings.Contains(err.Error(), key) {
			t.Errorf("computing call: err = %v, want an error naming the key", err)
		}
	case <-timeout:
		t.Fatal("the computing call did not return")
	}
	select {
	case ent := <-waited:
		if ent == nil || ent != c.Stored(key) {
			t.Errorf("waiter got %p, want its own computed entry, stored", ent)
		}
	case <-timeout:
		t.Fatal("the waiter is still blocked on the released key")
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want the waiter's miss and entry only", st)
	}
}

// TestDoCtxCancellation: a waiter whose own context dies while
// another goroutine computes gets its context error; a caller with an
// already-dead context never runs compute at all.
func TestDoCtxCancellation(t *testing.T) {
	c := New()
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.DoCtx(context.Background(), "k", func() (*Entry, error) {
			close(entered)
			<-release
			return testEntry(), nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.DoCtx(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()

	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.DoCtx(dead, "other", func() (*Entry, error) {
		t.Error("compute ran under a dead context")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("dead-context caller: err = %v", err)
	}
}

// TestDoCtxFaultInjection arms the evcache.compute site and asserts
// the injected error surfaces to the caller, is not cached, and that
// a retry (the arm spent) recomputes cleanly.
func TestDoCtxFaultInjection(t *testing.T) {
	inj, err := fault.New(1, fault.SiteEvcacheCompute+":error@1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.With(context.Background(), inj)
	c := New()
	ran := false
	_, err = c.DoCtx(ctx, "k", func() (*Entry, error) {
		ran = true
		return testEntry(), nil
	})
	if !fault.IsInjected(err) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if ran {
		t.Error("compute ran despite the injected fault")
	}
	ent, err := c.DoCtx(ctx, "k", func() (*Entry, error) { return testEntry(), nil })
	if err != nil || ent == nil {
		t.Fatalf("retry after injected fault: ent=%v err=%v", ent, err)
	}
}
