package core

import (
	"strconv"

	"repro/internal/obs"
)

// RegisterMetrics publishes the budget's accounting as callback gauges:
//
//	crowdkit_budget_spent_units      units spent so far
//	crowdkit_budget_remaining_units  units left (-1 = unlimited)
//
// Callback gauges are evaluated at scrape time only, so registration adds
// zero cost to the charge/refund hot path. No-op on a nil registry.
func (b *Budget) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("crowdkit_budget_spent_units", func() float64 { return float64(b.Spent()) })
	reg.GaugeFunc("crowdkit_budget_remaining_units", func() float64 { return float64(b.Remaining()) })
}

// RegisterMetrics publishes the pool's shape as callback gauges:
//
//	crowdkit_pool_tasks          registered tasks
//	crowdkit_pool_open_tasks     tasks still accepting answers
//	crowdkit_pool_answers        committed answers across all tasks
//	crowdkit_pool_active_leases  outstanding (issued, unconsumed) leases
//	crowdkit_pool_in_flight      answers + leases (what assigners balance on)
//	crowdkit_pool_version        mutation counter (cache-invalidation epoch)
//	crowdkit_pool_shards         shard count
//
// plus per-shard breakdowns labeled by shard index:
//
//	crowdkit_shard_tasks{shard="i"}          tasks owned by shard i
//	crowdkit_shard_answers{shard="i"}        committed answers on shard i
//	crowdkit_shard_active_leases{shard="i"}  outstanding leases on shard i
//	crowdkit_shard_version{shard="i"}        shard i's mutation counter
//
// The per-shard gauges make routing skew visible: a hot shard shows up as
// one label outrunning the others. Each pool gauge is computed inside one
// ViewAll when scraped, each shard gauge under that shard's read lock;
// nothing is added to the assignment or recording paths. No-op on a nil
// registry.
func (sp *ShardedPool) RegisterMetrics(reg *obs.Registry) {
	total := func(f func(*Pool) int) func() float64 {
		return func() float64 {
			n := 0
			sp.ViewAll(func(pools []*Pool) {
				for _, p := range pools {
					n += f(p)
				}
			})
			return float64(n)
		}
	}
	reg.GaugeFunc("crowdkit_pool_tasks", total((*Pool).Len))
	reg.GaugeFunc("crowdkit_pool_open_tasks", total((*Pool).OpenCount))
	reg.GaugeFunc("crowdkit_pool_answers", total((*Pool).TotalAnswers))
	reg.GaugeFunc("crowdkit_pool_active_leases", total((*Pool).ActiveLeases))
	reg.GaugeFunc("crowdkit_pool_in_flight", total(func(p *Pool) int { return p.TotalAnswers() + p.ActiveLeases() }))
	reg.GaugeFunc("crowdkit_pool_version", func() float64 { return float64(sp.Version()) })
	reg.GaugeFunc("crowdkit_pool_shards", func() float64 { return float64(sp.NumShards()) })
	for i, s := range sp.shards {
		one := func(f func(*Pool) int) func() float64 {
			return func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				return float64(f(s.pool))
			}
		}
		label := obs.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("crowdkit_shard_tasks", one((*Pool).Len), label)
		reg.GaugeFunc("crowdkit_shard_answers", one((*Pool).TotalAnswers), label)
		reg.GaugeFunc("crowdkit_shard_active_leases", one((*Pool).ActiveLeases), label)
		reg.GaugeFunc("crowdkit_shard_version", func() float64 { return float64(s.version.Load()) }, label)
	}
}
