"""Golden digests of whole-run metrics for the one-DNN-at-a-time executors.

Each digest is the SHA-256 of the canonical JSON (sorted keys) of a run's
``ScenarioMetrics.to_dict()`` — every counter, every response-time sample in
completion order, per-task completions, utilization, fault impact and the
per-GPU breakdown.  The digests were recorded from the GPU-engine
implementation of the ``clockwork`` backend and the cluster workers; the
closed-form :class:`~repro.gpu.exclusive.ExclusiveDevice` that replaced it
must reproduce them byte for byte.  A mismatch is a defect in the device
model, never a reason to re-record.

Covered: ``clockwork`` x {periodic, poisson, bursty, diurnal} x every
``NAMED_FAULTS`` profile x 2 seeds, and the 7-scenario cluster matrix
(replicated/partitioned x 3 routers x migration x targeted crash/throttle)
x 2 seeds.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.backends import get_backend
from repro.backends.configs import ClockworkConfig
from repro.cluster import ClusterConfig, ClusterServer
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.scenarios import NAMED_FAULTS, named_workload
from repro.rt.taskset import make_taskset, table2_taskset
from repro.sim.faults import FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.workload import POISSON_WORKLOAD


def metrics_digest(metrics) -> str:
    """SHA-256 of the canonical (sorted-key) JSON of ``metrics.to_dict()``."""
    text = json.dumps(metrics.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- clockwork

CLOCKWORK_WORKLOADS = ("periodic", "poisson", "bursty", "diurnal")
CLOCKWORK_SEEDS = (1, 2)


def clockwork_metrics(workload: str, fault: str, seed: int):
    request = ScenarioRequest(
        table2_taskset("resnet18"),
        ClockworkConfig(),
        1000.0,
        scheduler="clockwork",
        workload=named_workload(workload),
        faults=NAMED_FAULTS[fault],
        seed=seed,
    )
    return get_backend("clockwork").execute(request).metrics


# --------------------------------------------------------------- cluster

CLUSTER_MATRIX = {
    "least_loaded": (dict(num_gpus=4, router="least_loaded"), None),
    "round_robin": (dict(num_gpus=4, router="round_robin"), None),
    "deadline_aware": (dict(num_gpus=4, router="deadline_aware"), None),
    "partitioned": (
        dict(num_gpus=4, router="least_loaded", placement="partitioned"),
        None,
    ),
    "partitioned-migration": (
        dict(
            num_gpus=4,
            router="deadline_aware",
            placement="partitioned",
            migration_backlog=2,
            migration_window_ms=40.0,
        ),
        None,
    ),
    "targeted-crash": (
        dict(num_gpus=4, router="least_loaded"),
        FaultSpec.crashes(mtbf_ms=100.0, recovery_ms=60.0).targeting(1),
    ),
    "targeted-throttle": (
        dict(num_gpus=4, router="deadline_aware"),
        FaultSpec.throttle(period_ms=120.0, duration_ms=50.0, factor=0.5).targeting(0),
    ),
}
CLUSTER_SEEDS = (3, 11)


def cluster_metrics(label: str, seed: int):
    cfg_kwargs, faults = CLUSTER_MATRIX[label]
    taskset = make_taskset(
        [build_model("resnet18")], num_high=3, num_low=5, task_jps=40.0, name="cluster-eq"
    )
    return ClusterServer(ClusterConfig(**cfg_kwargs)).serve(
        taskset, 1500.0, workload=POISSON_WORKLOAD, rng=RngFactory(seed), faults=faults
    )


GOLDEN_DIGESTS = {
    "clockwork/periodic/none/1": "3369dd21ea85db43f88102db9407012d3f002bc07ba7269d6f378d551a31b8c8",
    "clockwork/periodic/none/2": "3369dd21ea85db43f88102db9407012d3f002bc07ba7269d6f378d551a31b8c8",
    "clockwork/periodic/throttle/1": "6e10b86f325fcaa134cbebe4b8e0721b187481a886c5689f2ba9a6d309cb81b3",
    "clockwork/periodic/throttle/2": "6e10b86f325fcaa134cbebe4b8e0721b187481a886c5689f2ba9a6d309cb81b3",
    "clockwork/periodic/flaky-launch/1": "49720678ca2cd252d994365b82fbb592cac1c213efc9bc01944fe4730cc80016",
    "clockwork/periodic/flaky-launch/2": "77bda72a0b7381659b59022a1866b5ed59cd76c7c4b4565c397cb574dacb89b8",
    "clockwork/periodic/crashy/1": "ecc411d5e1fcc3eb494f5d32ebb4706e5ec7b97399ce4d6c27ed84dc1a3df060",
    "clockwork/periodic/crashy/2": "bbdbeb58f0f9b70d39dfa213d1dafac752ee59121ab5eb09a858f23eb640275b",
    "clockwork/periodic/lossy/1": "3f5dbc9552296541fa98a379fff3d7855f3058ece167ddcb83131e17ae090bdf",
    "clockwork/periodic/lossy/2": "3957221c6b94ea47932d1c2da6342f8aa014e2ae0f2805f7b23953799bffbe62",
    "clockwork/periodic/storm/1": "b5f6b8a13600f2a0207280fe6841c5f1130dd8c9201c28d957dbcb43ee03d722",
    "clockwork/periodic/storm/2": "91ced6549e9fa28b58cf7ddda1b424b86960dfe602d7dce3e3207c7962ae2116",
    "clockwork/poisson/none/1": "961d4a8d99e7200acac374c1b2612f544391ebe084389f167960ed15fb90f1a0",
    "clockwork/poisson/none/2": "95a8e4f069559fa001ea7708994edcd60bb7a1f00ad782c080c891befde8310c",
    "clockwork/poisson/throttle/1": "3606e7b608ec13f5a61fc3fc3a90f6ac60d2f93620483eb80c45e0b7649268cb",
    "clockwork/poisson/throttle/2": "dc6bcbcae7e5d73d57b66f483bdd52cbde0c0be1b01e543e58fb034b1a563ad6",
    "clockwork/poisson/flaky-launch/1": "dd69bb49387dbc1cf1809bc6600b79868b984e1cb2bf53819da35ed9c8d95314",
    "clockwork/poisson/flaky-launch/2": "178d0298c575e72311b879556ec800e66df51e347815b691eed3ee03d1990015",
    "clockwork/poisson/crashy/1": "4be7db568a29269e51fbedb726cf33e4b8cf0bfe62f9578e40d4df9ccd875784",
    "clockwork/poisson/crashy/2": "a250483e228eb6fdbe2e18276a9e379dc8c916493fea864fcbc05959b6882013",
    "clockwork/poisson/lossy/1": "9bf780f87c78d01807c0a011117f0bb79d38d80e87d2900f3de9052998a145a2",
    "clockwork/poisson/lossy/2": "4a9b6d46288755ee6647ffd963f01ce3e2526cfbc21907473293c82063d5c922",
    "clockwork/poisson/storm/1": "fbe79af1b0fedd12075c41fd89836c11e764925f8a81ba84eb64311faa1407fc",
    "clockwork/poisson/storm/2": "c36b7aa9b0429b8d177a29b9e66326cc0fb12e8932d8f61c926ef4efb8a93d69",
    "clockwork/bursty/none/1": "7858580349fea831b34fb2bb0e358bd9c7dffc4490d6d319db68b905be056c82",
    "clockwork/bursty/none/2": "78d00d0073d3b0c26262bc514d0162b5283a65acc8425a572c93847f990f270e",
    "clockwork/bursty/throttle/1": "a7a6d93a36e358a9ed7336efec4a330880892ba1181ddd198b09b9731832262b",
    "clockwork/bursty/throttle/2": "808ef8e76892d73906c01ecc2662363f8753f4a63a59d16ff384b57243e1e50a",
    "clockwork/bursty/flaky-launch/1": "c0862d990f43241b9deca00ab96b4443cfbe49d27344bb6f82c5ce4938a558eb",
    "clockwork/bursty/flaky-launch/2": "4cdb0db39c722a5b0be3c3558f714a4fa519e56da46fe6dc499fd751a72681d6",
    "clockwork/bursty/crashy/1": "877a3cfe02cf6e812bb9718e64ce9aea7dc3bdf2ee266039ca150969a81d5b12",
    "clockwork/bursty/crashy/2": "901cfd75e3938034115858477b2b21d18d54c5762fb52414454ecf3c5568bb9e",
    "clockwork/bursty/lossy/1": "f270823fb7d69e0aea0fa0eb6449a52f3298f6c1b64451623baa2d279b54fcb9",
    "clockwork/bursty/lossy/2": "312d77ed3bbcaa41180f8f357b9f1667a4ee99e7358a74209bef6954f2c825f3",
    "clockwork/bursty/storm/1": "68529a8dfaeaa62408e5ca141e9fcb74d08a9a392f87e3ab47e9d4bafaf2768b",
    "clockwork/bursty/storm/2": "d90fae429e943656dd0b93f1cfd9ec2574a1324692b3429e82945a5c34ea6a44",
    "clockwork/diurnal/none/1": "dff36607a24e59ebd49c17b2deb4b7bef7f775cbdaf924aa10ab7582c3e4fbae",
    "clockwork/diurnal/none/2": "1aa40c53c773706ebf80dec2d6da9bff01b7257ad1e22bfadafcef138dd29521",
    "clockwork/diurnal/throttle/1": "71bf335943363b5e4e658a996b0ef9875daee34fa865db3e08500b2003358916",
    "clockwork/diurnal/throttle/2": "a6957192bb93c608422c229abd1b45295e5288f776dc1b1695d84ce05d545e5a",
    "clockwork/diurnal/flaky-launch/1": "7bb6a9e9feead1093bdbf1229c2352dcb951a40afc25f5b4e56acac1b6e32887",
    "clockwork/diurnal/flaky-launch/2": "2a368c0862ef000a723063d8c1aecaf1056f03d14f99fda458b2c745b7d5a7ea",
    "clockwork/diurnal/crashy/1": "b02fe4c36ca082f29b0d5bfa30ad835d89fe2dabdda5393d62444a33d3299caa",
    "clockwork/diurnal/crashy/2": "633b95d45959f152ca368c2dafa68241044ca103d957a72e6f42fc8938db96df",
    "clockwork/diurnal/lossy/1": "6ac19f66c92acf5ec883fec93165d90b83581d385d1d6fafa31fb389ec849c98",
    "clockwork/diurnal/lossy/2": "63cab7c20fd7c425938bba48e670fd1a40ca82d5c81687783b835bf85b0d23c4",
    "clockwork/diurnal/storm/1": "1d6770c6acfa318ca87ad53fe7ced74d3c8f0f7919067e7e15a865d58528dfc3",
    "clockwork/diurnal/storm/2": "4e880d23832d71a8f8d04c02989bf7f7792626b3155c4f3732df46c8e46adbb3",
    "cluster/least_loaded/3": "b13a931efe14ae0a0ede28326f812ad931af095105c37cdac245ea68d892127c",
    "cluster/least_loaded/11": "d454f9491445f1b37588d1baf41129584d51666fbbcb85f99ed27c70af339f91",
    "cluster/round_robin/3": "e623774c43855af4f76d14218582a83f48bf11c4ba29b069c1bca8cce4821a62",
    "cluster/round_robin/11": "e0473e9765742310f22fccbc900282a1504f08cde74dcbc44e712c52f22fb9e4",
    "cluster/deadline_aware/3": "ba028de8b840b090f8592d0c2d63ddc1af30f4e8cb4723bf116dbf1cacf99819",
    "cluster/deadline_aware/11": "28251bf684f10882c33fcbe35f8244dc3a994e2b11921fd6e20cce4abc78ed2c",
    "cluster/partitioned/3": "b13a931efe14ae0a0ede28326f812ad931af095105c37cdac245ea68d892127c",
    "cluster/partitioned/11": "d454f9491445f1b37588d1baf41129584d51666fbbcb85f99ed27c70af339f91",
    "cluster/partitioned-migration/3": "ba028de8b840b090f8592d0c2d63ddc1af30f4e8cb4723bf116dbf1cacf99819",
    "cluster/partitioned-migration/11": "28251bf684f10882c33fcbe35f8244dc3a994e2b11921fd6e20cce4abc78ed2c",
    "cluster/targeted-crash/3": "173728d0fa6f2a2434b7c6866086c273edf21152b5d1f174a9dc6761983b5c2a",
    "cluster/targeted-crash/11": "30d6fe4aa3f7c92ce9dfcbabd15dd411c6a356ee15709e2b211dc1b3b8a2cf94",
    "cluster/targeted-throttle/3": "45cd67beed93ecacf17a4966927ce812bf170a43234e799b0bacce6d881d1d1f",
    "cluster/targeted-throttle/11": "8880358e0d0401d54f66109a7f408de5da19c4615ed497c358f7fb91405fa00b",
}


def _golden_cases():
    cases = []
    for workload in CLOCKWORK_WORKLOADS:
        for fault in NAMED_FAULTS:
            for seed in CLOCKWORK_SEEDS:
                cases.append(f"clockwork/{workload}/{fault}/{seed}")
    for label in CLUSTER_MATRIX:
        for seed in CLUSTER_SEEDS:
            cases.append(f"cluster/{label}/{seed}")
    return cases


def run_case(case: str):
    """Metrics of one golden case, addressed by its id."""
    kind, *rest = case.split("/")
    if kind == "clockwork":
        workload, fault, seed = rest
        return clockwork_metrics(workload, fault, int(seed))
    label, seed = rest
    return cluster_metrics(label, int(seed))


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN_DIGESTS) == sorted(_golden_cases())


@pytest.mark.parametrize("case", _golden_cases())
def test_metrics_match_golden_digest(case):
    assert metrics_digest(run_case(case)) == GOLDEN_DIGESTS[case]
