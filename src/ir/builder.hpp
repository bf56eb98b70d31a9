// ProgramBuilder: the embedded (C++) frontend for constructing IR.
//
// Mirrors what the MiniC lowering does, as a fluent API: structured
// statements (for / if / while) take lambdas for their bodies and the
// builder lays out the natural-loop CFG shape the CST pass expects.
//
//   ir::ProgramBuilder pb;
//   auto& f = pb.function("main");
//   using namespace ir::dsl;
//   f.forLoop("i", 0, [](E i) { return std::move(i) < 10; },
//             [&](FunctionBuilder& b, Var i) {
//               b.send((rankv() + 1) % sizev(), 1024, 0);
//             });
//   auto module = pb.finish();
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/dsl.hpp"
#include "ir/ir.hpp"

namespace cypress::ir {

class ProgramBuilder;

class FunctionBuilder {
 public:
  /// Declare a local variable initialized to `init`; returns its handle.
  dsl::Var declare(const std::string& name, dsl::E init);

  void assign(dsl::Var var, dsl::E value);

  // --- MPI operations (WORLD unless a comm handle is given) ---
  void send(dsl::E dst, dsl::E bytes, dsl::E tag);
  void recv(dsl::E src, dsl::E bytes, dsl::E tag);
  dsl::Var isend(const std::string& reqName, dsl::E dst, dsl::E bytes, dsl::E tag);
  dsl::Var irecv(const std::string& reqName, dsl::E src, dsl::E bytes, dsl::E tag);
  void wait(dsl::Var request);
  void waitall();
  void waitsome();
  void barrier();
  void bcast(dsl::E root, dsl::E bytes);
  void reduce(dsl::E root, dsl::E bytes);
  void allreduce(dsl::E bytes);
  void gather(dsl::E root, dsl::E bytes);
  void scatter(dsl::E root, dsl::E bytes);
  void scan(dsl::E bytes);
  dsl::Var commSplit(const std::string& name, dsl::E color, dsl::E key);
  /// Collective on an explicit communicator handle.
  void allreduceOn(dsl::Var comm, dsl::E bytes);

  void compute(dsl::E nanoseconds);

  /// Call a user-defined function: callFunction("halo", E(128), rankv()).
  template <typename... Es>
  void callFunction(const std::string& callee, Es... args) {
    std::vector<ExprPtr> a;
    a.reserve(sizeof...(args));
    (a.push_back(std::move(args).take()), ...);
    callWithArgs(callee, std::move(a));
  }

  // --- control flow ---
  /// for (var <name> = init; cond(<name>); <name> = <name> + 1) body
  void forLoop(const std::string& name, dsl::E init,
               const std::function<dsl::E(dsl::E)>& cond,
               const std::function<void(FunctionBuilder&, dsl::Var)>& body);
  /// while (cond()) body — cond re-evaluated each iteration.
  void whileLoop(const std::function<dsl::E()>& cond,
                 const std::function<void(FunctionBuilder&)>& body);
  void ifThen(dsl::E cond, const std::function<void(FunctionBuilder&)>& then);
  void ifThenElse(dsl::E cond, const std::function<void(FunctionBuilder&)>& then,
                  const std::function<void(FunctionBuilder&)>& els);
  void ret();

  /// Parameter handles (slots 0..numParams-1).
  dsl::Var param(int index) const;

 private:
  friend class ProgramBuilder;
  explicit FunctionBuilder(Function* f) : f_(f) {}

  void callWithArgs(const std::string& callee, std::vector<ExprPtr> args);
  void emit(Instr instr);
  int startBlock(const std::string& name);
  void finishFunction();

  Function* f_;
  int cur_ = -1;
  bool terminated_ = false;
};

class ProgramBuilder {
 public:
  ProgramBuilder();

  /// Start (or continue) a function; parameters become slots 0..n-1.
  FunctionBuilder& function(const std::string& name,
                            const std::vector<std::string>& params = {});

  /// Terminate all functions, number call sites, verify, and return the
  /// module. The builder is consumed.
  std::unique_ptr<Module> finish();

 private:
  std::unique_ptr<Module> module_;
  std::vector<std::unique_ptr<FunctionBuilder>> builders_;
};

}  // namespace cypress::ir
