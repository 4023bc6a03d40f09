// Shared test corpus: one request of every protocol op, used by the codec
// round-trip tests (test_svc) and as fuzz seeds (test_json).
#pragma once

#include <vector>

#include "svc/protocol.h"

namespace melody::svc {

inline std::vector<Request> every_op_request() {
  std::vector<Request> requests;
  Request r;
  r.op = Op::kHello;
  r.id = 1;
  requests.push_back(r);
  r = {};
  r.op = Op::kSubmitBid;
  r.id = 2;
  r.worker = "w17";
  requests.push_back(r);  // known worker: no bid payload
  r = {};
  r.op = Op::kSubmitBid;
  r.id = 3;
  r.worker = "alice@example";
  r.cost = 1.375;
  r.frequency = 3;
  r.has_bid = true;
  requests.push_back(r);
  r = {};
  r.op = Op::kUpdateBid;
  r.id = 13;
  r.worker = "w17";
  r.cost = 1.25;
  r.frequency = 4;
  r.has_bid = true;  // parse always marks the payload: it IS the update
  requests.push_back(r);
  r = {};
  r.op = Op::kWithdrawBid;
  r.id = 14;
  r.worker = "w17";
  requests.push_back(r);
  r = {};
  r.op = Op::kSubmitTasks;
  r.id = 4;
  r.task_count = 500;
  r.budget = 812.5;
  requests.push_back(r);
  r = {};
  r.op = Op::kPostScores;
  r.id = 5;
  r.worker = "w17";
  r.scores = {6.5, 7.125, -1.0};
  requests.push_back(r);
  r = {};
  r.op = Op::kQueryWorker;
  r.id = 6;
  r.worker = "w2";
  requests.push_back(r);
  r = {};
  r.op = Op::kQueryRun;
  r.id = 7;
  r.run = 12;
  requests.push_back(r);
  r = {};
  r.op = Op::kRunNow;
  r.id = 8;
  requests.push_back(r);
  r = {};
  r.op = Op::kTick;
  r.id = 9;
  r.seconds = 0.25;
  requests.push_back(r);
  r = {};
  r.op = Op::kStats;
  r.id = 10;
  requests.push_back(r);
  r = {};
  r.op = Op::kCheckpoint;
  r.id = 11;
  r.path = "svc.ckpt";
  requests.push_back(r);
  r = {};
  r.op = Op::kShutdown;
  r.id = 12;
  requests.push_back(r);
  return requests;
}

}  // namespace melody::svc
