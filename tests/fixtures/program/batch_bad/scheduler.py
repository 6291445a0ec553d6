"""Every structural rule of the batched-egress protocol broken at
least once, on purpose."""


class GreedyScheduler:
    batchable = True

    def __init__(self, env):
        self.env = env
        self._queues = {"all": []}
        self.planned = 0

    def enqueue(self, flit):
        self._queues["all"].append(flit)

    def peek_ready(self):
        queue = self._queues["all"]
        return queue[0] if queue else None

    def plan_ready_run(self, limit):
        run = []
        while self._queues["all"] and len(run) < limit:
            run.append(self._queues["all"].pop(0))
        self.planned = len(run)
        self.env.timeout(0.0)
        self.env.credits.put_forget(len(run))
        return run

    def commit_head(self):
        return self._queues["all"].pop()
