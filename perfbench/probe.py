"""Set-up time of one fresh interpreter, printed as JSON.

    python3 perfbench/probe.py SPEC SEED

Times `import splitopt.cli`, then, unless SPEC is "-", the dataset load,
`normalize` and `MlpModel.init` that a run of SPEC starts with, through
those public functions.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    spec, seed = sys.argv[1], int(sys.argv[2])
    tic = perf_counter()
    import splitopt.cli  # noqa: F401  (the entry point's import is the cost)

    if spec != "-":
        from splitopt.bench import HIDDEN_UNITS, load_dataset_spec
        from splitopt.nn import MlpModel, normalize

        train, test = load_dataset_spec(spec, seed)
        x_train = normalize(train.images)
        normalize(test.images)
        classes = max(train.n_classes, test.n_classes)
        MlpModel.init((x_train.shape[1], HIDDEN_UNITS, classes), seed)
    print(json.dumps({"setup_s": perf_counter() - tic}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
