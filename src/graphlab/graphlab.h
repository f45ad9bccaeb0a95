// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Umbrella header: the public API of the Distributed GraphLab
// reproduction.  See README.md for a quickstart and DESIGN.md for the
// architecture map.

#ifndef GRAPHLAB_GRAPHLAB_H_
#define GRAPHLAB_GRAPHLAB_H_

// Substrate utilities.
#include "graphlab/util/logging.h"
#include "graphlab/util/options.h"
#include "graphlab/util/random.h"
#include "graphlab/util/serialization.h"
#include "graphlab/util/status.h"
#include "graphlab/util/timer.h"

// Simulated cluster runtime.
#include "graphlab/rpc/comm_layer.h"
#include "graphlab/rpc/runtime.h"

// Data graph: local, atoms, distributed.
#include "graphlab/graph/atom.h"
#include "graphlab/graph/coloring.h"
#include "graphlab/graph/distributed_graph.h"
#include "graphlab/graph/generators.h"
#include "graphlab/graph/local_graph.h"
#include "graphlab/graph/partition.h"

// Engine concept, shared execution substrate, factory, strategies,
// sync + snapshots.
#include "graphlab/baselines/bsp_engine.h"
#include "graphlab/baselines/bulk_sync_engine.h"
#include "graphlab/engine/chromatic_engine.h"
#include "graphlab/engine/context.h"
#include "graphlab/engine/engine_factory.h"
#include "graphlab/engine/execution_substrate.h"
#include "graphlab/engine/iengine.h"
#include "graphlab/engine/locking_engine.h"
#include "graphlab/engine/shared_memory_engine.h"
#include "graphlab/engine/snapshot.h"
#include "graphlab/engine/sync.h"

// Schedulers.
#include "graphlab/scheduler/scheduler.h"

// Fault tolerance: heartbeat failure detection, checkpoint coordination
// (Young's optimal interval), and live recovery of a dead machine's
// partition (Sec. 4.3).
#include "graphlab/fault/checkpoint.h"
#include "graphlab/fault/failure_detector.h"
#include "graphlab/fault/ft_runner.h"
#include "graphlab/fault/options.h"
#include "graphlab/fault/recovery.h"

#endif  // GRAPHLAB_GRAPHLAB_H_
