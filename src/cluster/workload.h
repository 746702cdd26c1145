/**
 * @file
 * Canonical cluster testbeds for the cluster and serving tests. One
 * seeded uniform-length Poisson trace, one heterogeneous
 * router-shootout fleet, and one colocated/disaggregated Pimba pair.
 * The scenarios/cluster_*.json presets describe the same shapes.
 */

#ifndef PIMBA_CLUSTER_WORKLOAD_H
#define PIMBA_CLUSTER_WORKLOAD_H

#include "cluster/fleet.h"

namespace pimba {

/**
 * The canonical cluster trace: Poisson arrivals, uniform lengths
 * (input 256..768, output 128..384 — mean 512/256; the variance is
 * what separates the token-aware routers from request counting).
 */
std::vector<Request> clusterTrace(double rate, int num_requests,
                                  uint32_t seed = 0x5EEDC0DEu);

/**
 * The router testbed: 2x Pimba + 2x GPU — fast and slow replicas in
 * one fleet, where load-blind round-robin drowns the GPUs.
 */
FleetConfig heterogeneousFleet(
    RouterPolicy router = RouterPolicy::RoundRobin);

/** Colocated n x Pimba baseline (join-shortest-queue routing), every
 *  replica costing its steps under @p mode. */
FleetConfig colocatedPimbaFleet(size_t n = 4,
                                ExecutionMode mode = ExecutionMode::Blocked);

/**
 * A heterogeneous-*mode* Pimba fleet: the first half of the replicas
 * run blocked, the second half overlapped (per-replica
 * EngineConfig::executionMode), behind join-shortest-queue routing.
 * Exercises mode mixing inside one fleet — the load-aware router should
 * steer work toward the faster overlapped replicas.
 */
FleetConfig mixedModePimbaFleet(size_t n = 4);

/**
 * The same four Pimba devices split 2 prefill + 2 decode, cached
 * blocks shipped over @p link (join-shortest-queue at both stages).
 */
FleetConfig disaggregatedPimbaFleet(const LinkConfig &link = nvlinkLink());

} // namespace pimba

#endif // PIMBA_CLUSTER_WORKLOAD_H
