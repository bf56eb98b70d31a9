// CST + runtime edge cases constructed with the ProgramBuilder frontend:
// early returns inside structures, zero-iteration loops under branches,
// loops exited by return, branches whose join is the loop latch, and
// deep nesting — each must instrument consistently and round-trip
// losslessly through the CYPRESS pipeline.
#include <gtest/gtest.h>

#include "cst/builder.hpp"
#include "cypress/ctt.hpp"
#include "cypress/decompress.hpp"
#include "cypress/merge.hpp"
#include "ir/builder.hpp"
#include "simmpi/engine.hpp"
#include "trace/observer.hpp"
#include "vm/runner.hpp"

namespace cypress::cst {
namespace {

using namespace ir::dsl;
using ir::FunctionBuilder;
using ir::ProgramBuilder;

/// Run the module with raw + CYPRESS observers; assert exact round trip.
void expectPipelineLossless(std::unique_ptr<ir::Module> m, int ranks) {
  StaticResult sr = analyzeAndInstrument(*m);
  simmpi::Engine::Config cfg;
  cfg.numRanks = ranks;
  simmpi::Engine engine(cfg);
  trace::RawTrace raw;
  raw.ranks.resize(static_cast<size_t>(ranks));
  std::vector<std::unique_ptr<trace::RawRecorder>> raws;
  std::vector<std::unique_ptr<core::CttRecorder>> cyps;
  std::vector<std::unique_ptr<trace::TeeObserver>> tees;
  std::vector<trace::Observer*> obs;
  for (int r = 0; r < ranks; ++r) {
    raw.ranks[static_cast<size_t>(r)].rank = r;
    raws.push_back(std::make_unique<trace::RawRecorder>(
        raw.ranks[static_cast<size_t>(r)]));
    cyps.push_back(std::make_unique<core::CttRecorder>(sr.cst, r));
    auto tee = std::make_unique<trace::TeeObserver>();
    tee->add(raws.back().get());
    tee->add(cyps.back().get());
    tees.push_back(std::move(tee));
    obs.push_back(tees.back().get());
  }
  vm::run(*m, engine, obs, {.instructionLimitPerRank = 1ull << 26});

  std::vector<const core::Ctt*> ctts;
  for (const auto& c : cyps) ctts.push_back(&c->ctt());
  core::MergedCtt merged = core::mergeAll(ctts);
  for (int r = 0; r < ranks; ++r) {
    auto got = core::decompressRank(merged, r);
    const auto& want = raw.ranks[static_cast<size_t>(r)].events;
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (size_t i = 0; i < want.size(); ++i)
      ASSERT_TRUE(got[i].sameComm(want[i]))
          << "rank " << r << " event " << i << "\n got " << got[i].toString()
          << "\nwant " << want[i].toString();
  }
}

TEST(CstEdge, ReturnInsideLoopBody) {
  // Loop exited by return on iteration 3: no loop-exit marker fires; the
  // recorder must auto-close the open frames at function end.
  ProgramBuilder pb;
  auto& f = pb.function("main");
  f.forLoop("i", 0, [](E i) { return std::move(i) < 10; },
            [](FunctionBuilder& b, Var i) {
              b.allreduce(8);
              b.ifThen(v(i) == 3, [](FunctionBuilder& bb) { bb.ret(); });
            });
  expectPipelineLossless(pb.finish(), 3);
}

TEST(CstEdge, ReturnInsideBranchThenMoreCode) {
  // One arm returns; the continuation nests under the other arm in the
  // CST (self-consistent with the runtime, see DESIGN.md).
  ProgramBuilder pb;
  auto& f = pb.function("main");
  f.ifThen(rankv() == 0, [](FunctionBuilder& b) {
    b.barrier();
    b.ret();
  });
  f.barrier();
  // Continuation after the early-return arm: p2p among the survivors.
  f.ifThen(rankv() == 1, [](FunctionBuilder& b) { b.send(2, 64, 5); });
  f.ifThen(rankv() == 2, [](FunctionBuilder& b) { b.recv(1, 64, 5); });
  expectPipelineLossless(pb.finish(), 4);
}

TEST(CstEdge, ZeroIterationLoopUnderBranch) {
  // The loop under the branch runs rank-many times — zero for rank 0.
  ProgramBuilder pb;
  auto& f = pb.function("main");
  f.ifThen(rankv() % 2 == 0, [](FunctionBuilder& b) {
    b.forLoop("i", 0, [](E i) { return std::move(i) < rankv(); },
              [](FunctionBuilder& bb, Var) { bb.send(0, 8, 0); });
  });
  f.ifThen(rankv() == 0, [](FunctionBuilder& b) {
    b.forLoop("g", 0, [](E g) { return std::move(g) < 2; },
              [](FunctionBuilder& bb, Var) { bb.recv(anySource(), 8, 0); });
  });
  f.barrier();
  expectPipelineLossless(pb.finish(), 4);
}

TEST(CstEdge, BranchAtEndOfLoopBody) {
  // The branch's join is the loop latch; exit markers share the edge
  // with the loop back edge.
  ProgramBuilder pb;
  auto& f = pb.function("main");
  f.forLoop("i", 0, [](E i) { return std::move(i) < 6; },
            [](FunctionBuilder& b, Var i) {
              b.allreduce(16);
              b.ifThenElse(v(i) % 2 == 0,
                           [](FunctionBuilder& bb) { bb.bcast(0, 64); },
                           [](FunctionBuilder& bb) { bb.reduce(0, 64); });
            });
  expectPipelineLossless(pb.finish(), 2);
}

TEST(CstEdge, DeepNesting) {
  ProgramBuilder pb;
  auto& f = pb.function("main");
  f.forLoop("a", 0, [](E a) { return std::move(a) < 3; },
            [](FunctionBuilder& b, Var a) {
              b.ifThen(v(a) > 0, [&](FunctionBuilder& b2) {
                b2.forLoop("c", 0, [&](E c) { return std::move(c) < v(a); },
                           [&](FunctionBuilder& b3, Var c) {
                             b3.ifThenElse(
                                 v(c) % 2 == 0,
                                 [](FunctionBuilder& b4) {
                                   b4.forLoop("d", 0,
                                              [](E d) { return std::move(d) < 2; },
                                              [](FunctionBuilder& b5, Var) {
                                                b5.allreduce(8);
                                              });
                                 },
                                 [](FunctionBuilder& b4) { b4.barrier(); });
                           });
              });
            });
  expectPipelineLossless(pb.finish(), 3);
}

TEST(CstEdge, FunctionWithReturnOnlyPath) {
  // Callee whose every path returns explicitly; caller continues after.
  ProgramBuilder pb;
  auto& g = pb.function("maybe", {"n"});
  g.ifThenElse(g.param(0).ref() > 0,
               [](FunctionBuilder& b) {
                 b.allreduce(8);
                 b.ret();
               },
               [](FunctionBuilder& b) { b.ret(); });
  auto& f = pb.function("main");
  f.callFunction("maybe", E(1));  // every rank takes the allreduce path
  f.callFunction("maybe", E(0));  // every rank takes the empty path
  f.barrier();
  expectPipelineLossless(pb.finish(), 3);
}

TEST(CstEdge, WhileLoopDrivenByRankDependentBound) {
  ProgramBuilder pb;
  auto& f = pb.function("main");
  auto n = f.declare("n", rankv() % 3);
  f.whileLoop([&] { return n.ref() > 0; },
              [&](FunctionBuilder& b) {
                b.allreduce(8);  // collective inside rank-dependent loop
                b.assign(n, n.ref() - 1);
              });
  f.barrier();
  // Rank-dependent collective counts would deadlock with a real mismatch;
  // with world size 1 this exercises the shape safely.
  expectPipelineLossless(pb.finish(), 1);
}

TEST(CstEdge, InstrumentationCountsMatchStructure) {
  ProgramBuilder pb;
  auto& f = pb.function("main");
  f.forLoop("i", 0, [](E i) { return std::move(i) < 4; },
            [](FunctionBuilder& b, Var) {
              b.ifThen(rankv() == 0, [](FunctionBuilder& bb) { bb.bcast(0, 8); });
              b.allreduce(8);
            });
  auto m = pb.finish();
  StaticResult sr = analyzeAndInstrument(*m);
  int enters = 0, exits = 0;
  for (const auto& fn : m->functions)
    for (const auto& blk : fn->blocks)
      for (const auto& ins : blk.instrs) {
        if (ins.kind == ir::InstrKind::StructEnter) ++enters;
        if (ins.kind == ir::InstrKind::StructExit) ++exits;
      }
  // Loop: 1 enter + 1 exit; kept branch path: 1 enter + 1 exit.
  EXPECT_EQ(enters, 2);
  EXPECT_EQ(exits, 2);
  EXPECT_EQ(sr.stats.numLoops, 1);
  EXPECT_EQ(sr.stats.numBranches, 1);
}

TEST(CstEdge, IrreducibleCfgRejectedLoudly) {
  // Hand-built CFG with a jump into the middle of a loop (irreducible):
  // the structured walker must reject it with a clear error instead of
  // producing a wrong CST.
  auto m = std::make_unique<ir::Module>();
  ir::Function* f = m->addFunction("main");
  const int b0 = f->addBlock("entry");
  const int b1 = f->addBlock("a");
  const int b2 = f->addBlock("b");
  const int b3 = f->addBlock("exit");
  f->blocks[static_cast<size_t>(b0)].term =
      ir::Terminator::condBr(ir::Expr::rank(), b1, b2);
  f->blocks[static_cast<size_t>(b1)].instrs.push_back(
      ir::Instr::mpi(ir::MpiOp::Barrier, {}));
  f->blocks[static_cast<size_t>(b1)].term =
      ir::Terminator::condBr(ir::Expr::rank(), b2, b3);
  f->blocks[static_cast<size_t>(b2)].instrs.push_back(
      ir::Instr::mpi(ir::MpiOp::Barrier, {}));
  f->blocks[static_cast<size_t>(b2)].term =
      ir::Terminator::condBr(ir::Expr::rank(), b1, b3);  // cross edge
  f->blocks[static_cast<size_t>(b3)].term = ir::Terminator::ret();
  m->numberCallSites();
  ir::verify(*m);
  EXPECT_THROW(analyzeAndInstrument(*m), Error);
}

TEST(CstEdge, LoopHeaderWithCommCallRejected) {
  // An MPI call inside a loop-header block would escape the loop vertex;
  // the builder refuses it explicitly.
  auto m = std::make_unique<ir::Module>();
  ir::Function* f = m->addFunction("main");
  f->addVar("i");
  const int b0 = f->addBlock("entry");
  const int h = f->addBlock("header");
  const int body = f->addBlock("body");
  const int exit = f->addBlock("exit");
  f->blocks[static_cast<size_t>(b0)].instrs.push_back(
      ir::Instr::assign(0, ir::Expr::constant(0)));
  f->blocks[static_cast<size_t>(b0)].term = ir::Terminator::br(h);
  f->blocks[static_cast<size_t>(h)].instrs.push_back(
      ir::Instr::mpi(ir::MpiOp::Barrier, {}));  // call in header
  f->blocks[static_cast<size_t>(h)].term = ir::Terminator::condBr(
      ir::Expr::binary(ir::BinOp::Lt, ir::Expr::var(0), ir::Expr::constant(3)),
      body, exit);
  f->blocks[static_cast<size_t>(body)].instrs.push_back(ir::Instr::assign(
      0, ir::Expr::binary(ir::BinOp::Add, ir::Expr::var(0), ir::Expr::constant(1))));
  f->blocks[static_cast<size_t>(body)].term = ir::Terminator::br(h);
  f->blocks[static_cast<size_t>(exit)].term = ir::Terminator::ret();
  m->numberCallSites();
  ir::verify(*m);
  EXPECT_THROW(analyzeAndInstrument(*m), Error);
}

}  // namespace
}  // namespace cypress::cst
